/**
 * @file
 * Golden-replay regression test: a small checked-in trace replayed
 * exactly, on every architecture, against a checked-in snapshot of
 * the replay outcome and full statistics dump.
 *
 * Any change to reference handling, fault resolution, cost charging
 * or stats layout shows up as a diff here. When the change is
 * intentional, regenerate the snapshot:
 *
 *   SASOS_GOLDEN_REGEN=1 ./golden_test
 *
 * and commit the updated tests/data/golden_expected.txt (and
 * golden_stats.json for the machine-readable snapshot).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/mc/mc_system.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/trace.hh"

#include "temp_path.hh"

using namespace sasos;

namespace
{

std::string
dataPath(const char *name)
{
    return std::string(SASOS_TEST_DATA_DIR) + "/" + name;
}

/** The golden scenario: two domains with asymmetric rights over two
 * 4-page segments. The trace was written against these bases. */
struct GoldenScenario
{
    os::DomainId a = 0;
    os::DomainId b = 0;
};

GoldenScenario
setupGolden(core::System &sys)
{
    GoldenScenario scenario;
    auto &kernel = sys.kernel();
    scenario.a = kernel.createDomain("a");
    scenario.b = kernel.createDomain("b");
    const vm::SegmentId seg1 = kernel.createSegment("code-heap", 4);
    const vm::SegmentId seg2 = kernel.createSegment("shared", 4);
    // The trace addresses assume this layout; fail loudly if the
    // allocator ever places segments differently.
    EXPECT_EQ(sys.state().segments.find(seg1)->base().raw(), 0x100000u);
    EXPECT_EQ(sys.state().segments.find(seg2)->base().raw(), 0x104000u);
    kernel.attach(scenario.a, seg1, vm::Access::ReadWrite);
    kernel.attach(scenario.a, seg2, vm::Access::Read);
    kernel.attach(scenario.b, seg1, vm::Access::Read);
    kernel.attach(scenario.b, seg2, vm::Access::All);
    return scenario;
}

/** Convert the checked-in text trace to a temporary binary trace. */
std::string
binaryGoldenTrace()
{
    const std::string out = test::uniqueTempPath("golden.trc");
    std::ifstream in(dataPath("golden.trace.txt"));
    EXPECT_TRUE(in.good()) << "missing " << dataPath("golden.trace.txt");
    trace::TraceWriter writer(out);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        writer.append(trace::fromText(line));
    }
    return out;
}

} // namespace

TEST(GoldenReplayTest, MatchesCheckedInSnapshot)
{
    const std::string trace_path = binaryGoldenTrace();

    std::ostringstream actual;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::System sys(core::SystemConfig::forModel(kind));
        const GoldenScenario scenario = setupGolden(sys);
        trace::TraceReader reader(trace_path);
        const trace::ReplayResult result = trace::replay(
            sys, reader, {{1, scenario.a}, {2, scenario.b}});
        actual << "==== " << core::toString(kind) << " ====\n";
        actual << "records " << result.records << " references "
               << result.references << " switches " << result.switches
               << " failed " << result.failedReferences << "\n";
        sys.dumpStats(actual);
        actual << "\n";
    }
    std::remove(trace_path.c_str());

    const std::string expected_path = dataPath("golden_expected.txt");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden replay diverged; if intentional, regenerate with "
           "SASOS_GOLDEN_REGEN=1";
}

/** The same golden replay, snapshotted through the machine-readable
 * stats exporter: any change to the stats tree layout, the JSON
 * emitter or the cycle accounting shows up as a diff against
 * tests/data/golden_stats.json. */
TEST(GoldenReplayTest, StatsJsonMatchesCheckedInSnapshot)
{
    const std::string trace_path = binaryGoldenTrace();

    std::ostringstream actual;
    actual << "[\n";
    bool first = true;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::System sys(core::SystemConfig::forModel(kind));
        const GoldenScenario scenario = setupGolden(sys);
        trace::TraceReader reader(trace_path);
        trace::replay(sys, reader, {{1, scenario.a}, {2, scenario.b}});
        if (!first)
            actual << ",\n";
        first = false;
        sys.dumpStatsJson(actual);
    }
    actual << "\n]\n";
    std::remove(trace_path.c_str());

    const std::string expected_path = dataPath("golden_stats.json");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden stats JSON diverged; if intentional, regenerate "
           "with SASOS_GOLDEN_REGEN=1";
}

/** The three application scenarios (CoW fork tree, portal RPC chains,
 * server-style mix) replayed on every model, snapshotted through the
 * stats exporter plus the replay tallies: any change to the scenario
 * builders, the CoW fault path, portal attachment wiring or cost
 * charging shows up as a diff against
 * tests/data/golden_scenario_stats.json. Regenerate (and review the
 * diff!) with SASOS_GOLDEN_REGEN=1 after intentional changes. */
TEST(GoldenReplayTest, ScenarioStatsJsonMatchesCheckedInSnapshot)
{
    const std::vector<scn::Script> scripts = scn::standardScripts(1);

    std::ostringstream actual;
    actual << "[\n";
    bool first = true;
    for (const scn::Script &script : scripts) {
        for (core::ModelKind kind :
             {core::ModelKind::Plb, core::ModelKind::PageGroup,
              core::ModelKind::Conventional, core::ModelKind::Pkey}) {
            core::System sys(core::SystemConfig::forModel(kind));
            const scn::RunStats tally = scn::runScript(sys, script);
            EXPECT_EQ(tally.refs, script.refs) << script.name;
            if (!first)
                actual << ",\n";
            first = false;
            actual << "{\"scenario\": \"" << script.name
                   << "\", \"refs\": " << tally.refs
                   << ", \"allowed\": " << tally.allowed
                   << ", \"denied\": " << tally.denied << ",\n\"stats\": ";
            sys.dumpStatsJson(actual);
            actual << "}";
        }
    }
    actual << "\n]\n";

    const std::string expected_path = dataPath("golden_scenario_stats.json");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden scenario stats diverged; if intentional, regenerate "
           "with SASOS_GOLDEN_REGEN=1";
}

/** A fixed 4-core multi-core run per model, snapshotted through the
 * stats exporter: the interleaving schedule, the IPI delay model, the
 * shootdown accounting and the per-core stats layout are all pinned
 * by tests/data/golden_mc_stats.json. Regenerate (and review the
 * diff!) with SASOS_GOLDEN_REGEN=1 after intentional changes. */
TEST(GoldenReplayTest, McStatsJsonMatchesCheckedInSnapshot)
{
    std::ostringstream actual;
    actual << "[\n";
    bool first = true;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        core::mc::McConfig config;
        config.system = core::SystemConfig::forModel(kind);
        config.cores = 4;
        config.workload.stepsPerCore = 300;
        config.workload.churnProb = 0.1;
        config.workload.seed = 5;
        core::mc::McSystem engine(config);
        const core::mc::McResult result = engine.run();
        EXPECT_EQ(result.invariantViolations, 0u)
            << core::toString(kind) << ": " << result.firstViolation;
        EXPECT_EQ(result.hwViolations, 0u)
            << core::toString(kind) << ": " << result.firstViolation;
        if (!first)
            actual << ",\n";
        first = false;
        engine.dumpStatsJson(actual);
    }
    actual << "\n]\n";

    const std::string expected_path = dataPath("golden_mc_stats.json");
    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(expected_path);
        out << actual.str();
        GTEST_SKIP() << "regenerated " << expected_path;
    }

    std::ifstream in(expected_path);
    ASSERT_TRUE(in.good())
        << "missing " << expected_path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "golden multi-core stats diverged; if intentional, "
           "regenerate with SASOS_GOLDEN_REGEN=1";
}
