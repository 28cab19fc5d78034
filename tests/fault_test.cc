/**
 * @file
 * Tests for the deterministic fault-injection engine and its
 * cross-model differential oracle.
 *
 * The engine's contract: a seeded campaign is bit-identical across
 * runs and thread counts, and injected perturbations change cycle
 * costs only -- every reference is retried by the kernel to the same
 * allow/deny outcome the clean run produced.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "fault/fault.hh"
#include "fault/oracle.hh"
#include "farm/campaign.hh"
#include "workload/address_stream.hh"

#include "temp_path.hh"

using namespace sasos;

namespace
{

/** Record the injector's full perturbation schedule for `ticks`. */
std::string
schedule(fault::FaultInjector &injector, u64 ticks)
{
    std::string out;
    for (u64 i = 0; i < ticks; ++i) {
        const fault::Perturbation p = injector.tick();
        char c = '.';
        if (p.evictProtection)
            c = 'p';
        else if (p.evictTranslation)
            c = 't';
        else if (p.evictData)
            c = 'd';
        else if (p.flushProtection)
            c = 'F';
        else if (p.delayFill)
            c = 'D';
        else if (p.transientFault)
            c = 'X';
        out.push_back(c);
    }
    return out;
}

fault::CampaignConfig
smallCampaign(double rate)
{
    fault::CampaignConfig config;
    config.references = 4'000;
    config.faults.rate = rate;
    return config;
}

} // namespace

TEST(FaultInjectorTest, SameSeedSameSchedule)
{
    fault::FaultConfig config;
    config.enabled = true;
    config.seed = 99;
    config.rate = 0.1;
    stats::Group root_a("a"), root_b("b");
    fault::FaultInjector one(config, &root_a);
    fault::FaultInjector two(config, &root_b);
    EXPECT_EQ(schedule(one, 5'000), schedule(two, 5'000));
    EXPECT_EQ(one.injected.value(), two.injected.value());
    EXPECT_GT(one.injected.value(), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge)
{
    fault::FaultConfig config;
    config.enabled = true;
    config.rate = 0.1;
    stats::Group root_a("a"), root_b("b");
    config.seed = 1;
    fault::FaultInjector one(config, &root_a);
    config.seed = 2;
    fault::FaultInjector two(config, &root_b);
    EXPECT_NE(schedule(one, 5'000), schedule(two, 5'000));
}

TEST(FaultInjectorTest, TransientsRespectTheGap)
{
    fault::FaultConfig config;
    config.enabled = true;
    config.rate = 1.0; // every tick injects
    config.transientGap = 10;
    stats::Group root("r");
    fault::FaultInjector injector(config, &root);
    const std::string sched = schedule(injector, 2'000);
    std::size_t last = std::string::npos;
    for (std::size_t i = 0; i < sched.size(); ++i) {
        if (sched[i] != 'X')
            continue;
        if (last != std::string::npos)
            EXPECT_GE(i - last, config.transientGap) << "at tick " << i;
        last = i;
    }
    EXPECT_GT(injector.transients.value(), 0u);
}

TEST(FaultInjectorTest, RateZeroNeverInjects)
{
    fault::FaultConfig config;
    config.enabled = true;
    config.rate = 0.0;
    stats::Group root("r");
    fault::FaultInjector injector(config, &root);
    for (u64 i = 0; i < 10'000; ++i)
        EXPECT_FALSE(injector.tick().any());
    EXPECT_EQ(injector.injected.value(), 0u);
}

/** A rate-0 enabled injector must not change simulated results. */
TEST(FaultSystemTest, RateZeroMatchesDisabled)
{
    u64 cycles[2] = {0, 0};
    u64 completed[2] = {0, 0};
    int index = 0;
    for (bool enabled : {false, true}) {
        core::SystemConfig config = core::SystemConfig::plbSystem();
        config.faults.enabled = enabled;
        config.faults.rate = 0.0;
        core::System sys(config);
        const os::DomainId app = sys.kernel().createDomain("app");
        const vm::SegmentId seg = sys.kernel().createSegment("heap", 64);
        sys.kernel().attach(app, seg, vm::Access::ReadWrite);
        sys.kernel().switchTo(app);
        const vm::VAddr base = sys.state().segments.find(seg)->base();
        wl::ZipfPageStream stream(base, 64, 0.8, 5);
        Rng rng(5);
        const core::RunResult run = sys.run(stream, 20'000, rng);
        cycles[index] = sys.cycles().count();
        completed[index] = run.completed;
        ++index;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(completed[0], completed[1]);
}

/** The same faulty cell, run twice, produces the same stats dump. */
TEST(FaultSystemTest, FaultyRunsAreBitIdenticalAcrossRuns)
{
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        farm::SweepCell cell;
        cell.model = "m";
        cell.workload = "zipf";
        cell.seed = 3;
        cell.config = core::SystemConfig::forModel(kind);
        cell.config.faults.enabled = true;
        cell.config.faults.rate = 0.05;
        cell.pages = 128;
        cell.references = 50'000;
        cell.makeStream = [](vm::VAddr base, u64 pages, u64 seed) {
            return std::make_unique<wl::ZipfPageStream>(base, pages, 0.8,
                                                        seed);
        };
        const farm::CellResult first = farm::SweepRunner::runCell(cell);
        const farm::CellResult second = farm::SweepRunner::runCell(cell);
        EXPECT_EQ(first.statsDump, second.statsDump);
        EXPECT_EQ(first.simCycles, second.simCycles);
        // The campaign actually injected something.
        EXPECT_NE(first.statsDump.find("faults"), std::string::npos);
    }
}

/** Thread count must not leak into faulty simulated results: each
 * cell owns its injector, so a sweep's dumps are identical whatever
 * the pool size. */
TEST(FaultSystemTest, FaultySweepIsThreadCountIndependent)
{
    std::vector<farm::SweepCell> cells;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey}) {
        for (u64 seed = 1; seed <= 3; ++seed) {
            farm::SweepCell cell;
            cell.model = core::toString(kind);
            cell.workload = "uniform";
            cell.seed = seed;
            cell.config = core::SystemConfig::forModel(kind);
            cell.config.faults.enabled = true;
            cell.config.faults.seed = seed * 11;
            cell.config.faults.rate = 0.02;
            cell.pages = 64;
            cell.references = 20'000;
            cell.makeStream = [](vm::VAddr base, u64 pages, u64) {
                return std::make_unique<wl::UniformStream>(
                    base, pages * vm::kPageBytes);
            };
            cells.push_back(std::move(cell));
        }
    }
    farm::SweepRunner serial(1);
    farm::SweepRunner pooled(4);
    const std::vector<farm::CellResult> one = serial.run(cells);
    const std::vector<farm::CellResult> four = pooled.run(cells);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].statsDump, four[i].statsDump)
            << cells[i].model << " seed=" << cells[i].seed;
        EXPECT_EQ(one[i].simCycles, four[i].simCycles);
    }
}

/** The differential oracle: same decisions and final rights across
 * all four models, clean and injected. */
TEST(FaultOracleTest, CampaignPassesAtModerateRate)
{
    const std::string path = test::uniqueTempPath("fault_oracle_mid.trc");
    const fault::CampaignResult result =
        fault::runCampaign(smallCampaign(0.02), path);
    for (const std::string &violation : result.violations)
        ADD_FAILURE() << violation;
    EXPECT_TRUE(result.passed);
    ASSERT_EQ(result.runs.size(), 8u);
    for (const fault::RunOutcome &run : result.runs) {
        EXPECT_EQ(run.decisions.size(), result.references);
        EXPECT_TRUE(run.hwWithinCanonical) << run.model;
        if (run.injected)
            EXPECT_GT(run.injectedEvents, 0u) << run.model;
    }
    std::remove(path.c_str());
}

/** Injected transient protection faults must be retried by the kernel
 * to the clean run's outcome -- the campaign passing with transients
 * observed is exactly that claim. */
TEST(FaultOracleTest, TransientFaultsRetryToCleanOutcome)
{
    const std::string path = test::uniqueTempPath("fault_oracle_hot.trc");
    fault::CampaignConfig config = smallCampaign(0.3);
    config.faults.transientGap = 16;
    const fault::CampaignResult result = fault::runCampaign(config, path);
    for (const std::string &violation : result.violations)
        ADD_FAILURE() << violation;
    EXPECT_TRUE(result.passed);
    for (const fault::RunOutcome &run : result.runs) {
        if (!run.injected)
            continue;
        EXPECT_GT(run.transients, 0u) << run.model;
        // Recovery happened: the kernel resolved-and-retried more
        // often than in the clean run.
        const fault::RunOutcome *clean =
            result.find(run.model, false);
        ASSERT_NE(clean, nullptr);
        EXPECT_GT(run.faultRetries, clean->faultRetries) << run.model;
        // ...and outcomes still match it.
        EXPECT_EQ(run.decisions, clean->decisions) << run.model;
        EXPECT_EQ(run.rightsSnapshot, clean->rightsSnapshot) << run.model;
    }
    std::remove(path.c_str());
}

/** Same campaign seed, same verdict and numbers, run to run. */
TEST(FaultOracleTest, CampaignIsDeterministic)
{
    const std::string path_a = test::uniqueTempPath("fault_oracle_a.trc");
    const std::string path_b = test::uniqueTempPath("fault_oracle_b.trc");
    fault::CampaignConfig config = smallCampaign(0.05);
    config.references = 2'000;
    const fault::CampaignResult first = fault::runCampaign(config, path_a);
    const fault::CampaignResult second =
        fault::runCampaign(config, path_b);
    EXPECT_TRUE(first.passed);
    EXPECT_TRUE(second.passed);
    ASSERT_EQ(first.runs.size(), second.runs.size());
    for (std::size_t i = 0; i < first.runs.size(); ++i) {
        EXPECT_EQ(first.runs[i].decisions, second.runs[i].decisions);
        EXPECT_EQ(first.runs[i].rightsSnapshot,
                  second.runs[i].rightsSnapshot);
        EXPECT_EQ(first.runs[i].simCycles, second.runs[i].simCycles);
        EXPECT_EQ(first.runs[i].injectedEvents,
                  second.runs[i].injectedEvents);
    }
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(FaultConfigTest, OptionsWireThrough)
{
    Options options;
    options.set("faults", "1");
    options.set("fault_seed", "123");
    options.set("fault_rate", "0.25");
    options.set("fault_gap", "32");
    const core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());
    EXPECT_TRUE(config.faults.enabled);
    EXPECT_EQ(config.faults.seed, 123u);
    EXPECT_DOUBLE_EQ(config.faults.rate, 0.25);
    EXPECT_EQ(config.faults.transientGap, 32u);
}
