/**
 * @file
 * Tests for the shared differential path (fault/oracle.hh) and the
 * hardware peek it rests on, ProtectionModel::cachedRights:
 *
 *  - the comparator turns each kind of divergence into exactly its
 *    violation text, and a failing verdict comes out of
 *    runDifferential;
 *  - the hw-within-canonical checks can fail: one cached entry raised
 *    above canonical, on each model, is caught by the final-state
 *    probe and by McSystem's quiescence check;
 *  - peeking is pure: a full cachedRights sweep leaves the stats dump
 *    and the snapshot bytes unchanged.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cached_entry.hh"
#include "core/mc/mc_system.hh"
#include "core/system.hh"
#include "fault/oracle.hh"
#include "snap/snapio.hh"

using namespace sasos;
using namespace sasos::core;
using sasos::test::raiseCachedEntry;

namespace
{

using Violations = std::vector<std::string>;

fault::RunOutcome
record(const std::string &model, bool injected, std::vector<u8> decisions,
       const std::string &snapshot)
{
    fault::RunOutcome run;
    run.model = model;
    run.injected = injected;
    run.decisions = std::move(decisions);
    run.rightsSnapshot = snapshot;
    return run;
}

Violations
compare(const fault::RunOutcome &baseline, const fault::RunOutcome &run,
        u64 references, const std::string &prefix = "",
        const std::string &expected = "expected")
{
    Violations violations;
    fault::compareRun(baseline, run, references, prefix, expected,
                      violations);
    return violations;
}

/** A machine with two domains over one four-page segment: `a` (the
 * running domain) read-write, `b` read-only, plus a segment nobody
 * attached. */
struct SmallMachine
{
    explicit SmallMachine(ModelKind kind) : sys(SystemConfig::forModel(kind))
    {
        a = sys.kernel().createDomain("a");
        b = sys.kernel().createDomain("b");
        const vm::SegmentId seg = sys.kernel().createSegment("s", 4);
        sys.kernel().attach(a, seg, vm::Access::ReadWrite);
        sys.kernel().attach(b, seg, vm::Access::Read);
        sys.kernel().createSegment("unattached", 2);
        first = sys.state().segments.find(seg)->firstPage;
    }

    core::System sys;
    os::DomainId a = 0;
    os::DomainId b = 0;
    vm::Vpn first;
};

std::string
statsDump(core::System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

std::vector<u8>
image(const core::System &sys)
{
    snap::SnapWriter w;
    sys.save(w);
    return std::move(w).seal();
}

} // namespace

TEST(RunComparatorTest, MatchingRunYieldsNothing)
{
    const fault::RunOutcome baseline =
        record("plb", false, {1, 0, 1, 1}, "0123");
    const fault::RunOutcome run =
        record("pkey", true, {1, 0, 1, 1}, "0123");
    EXPECT_TRUE(compare(baseline, run, 4).empty());
}

TEST(RunComparatorTest, DecisionDivergenceNamesItsIndex)
{
    const fault::RunOutcome baseline =
        record("plb", false, {1, 0, 1, 1}, "0123");
    const fault::RunOutcome run =
        record("conventional", true, {1, 0, 0, 1}, "0123");
    EXPECT_EQ(compare(baseline, run, 4),
              Violations{"conventional+faults: allow/deny diverges from "
                         "plb+clean at reference 2"});
}

TEST(RunComparatorTest, RightsSnapshotDivergence)
{
    const fault::RunOutcome baseline =
        record("plb", false, {1, 0, 1, 1}, "0123");
    const fault::RunOutcome run =
        record("page-group", false, {1, 0, 1, 1}, "0133");
    EXPECT_EQ(compare(baseline, run, 4),
              Violations{"page-group+clean: final canonical rights "
                         "diverge from plb+clean"});
}

TEST(RunComparatorTest, ShortRunNamesBothCounts)
{
    const fault::RunOutcome baseline =
        record("plb", false, {1, 0, 1, 1}, "0123");
    EXPECT_EQ(compare(baseline, baseline, 5),
              Violations{"plb+clean: replayed 4 references, expected 5"});
    // The scenario oracle's prefix and wording.
    EXPECT_EQ(compare(baseline, baseline, 5, "fork-tree/", "script has"),
              Violations{"fork-tree/plb+clean: replayed 4 references, "
                         "script has 5"});
}

TEST(RunComparatorTest, HardwareAboveCanonical)
{
    const fault::RunOutcome baseline =
        record("plb", false, {1, 0, 1, 1}, "0123");
    fault::RunOutcome run = baseline;
    run.model = "pkey";
    run.hwWithinCanonical = false;
    EXPECT_EQ(compare(baseline, run, 4),
              Violations{"pkey+clean: hardware rights exceed canonical "
                         "rights"});
}

TEST(RunComparatorTest, DifferentialVerdictFailsOnADivergentModel)
{
    // A stream driver that decides differently on one model: the
    // shared path runs every model clean and injected, and the
    // verdict names exactly the two divergent runs.
    fault::CampaignResult verdict;
    verdict.references = 2;
    fault::runDifferential(
        verdict, fault::FaultConfig{}, "", "expected",
        [](core::System &sys, fault::RunOutcome &run) {
            const bool odd = sys.config().model == ModelKind::Pkey;
            run.decisions = {1, static_cast<u8>(odd ? 0 : 1)};
        });
    EXPECT_FALSE(verdict.passed);
    EXPECT_EQ(verdict.runs.size(), 2 * allModels().size());
    EXPECT_EQ(verdict.violations,
              (Violations{"pkey+clean: allow/deny diverges from plb+clean "
                          "at reference 1",
                          "pkey+faults: allow/deny diverges from "
                          "plb+clean at reference 1"}));
    const fault::RunOutcome *pkey = verdict.find("pkey", true);
    ASSERT_NE(pkey, nullptr);
    EXPECT_EQ(pkey->completed, 1u);
    EXPECT_EQ(pkey->failed, 1u);
}

TEST(CachedRightsTest, ProbeCatchesARaisedEntryOnEveryModel)
{
    for (ModelKind kind : allModels()) {
        SmallMachine m(kind);
        ASSERT_TRUE(m.sys.store(vm::baseOf(m.first)));
        fault::RunOutcome clean;
        fault::probeFinalState(m.sys, clean);
        EXPECT_TRUE(clean.hwWithinCanonical) << toString(kind);

        ASSERT_TRUE(raiseCachedEntry(m.sys.model(), m.a, m.first))
            << toString(kind);
        EXPECT_FALSE(vm::includes(
            m.sys.kernel().canonicalRights(m.a, m.first),
            m.sys.model().cachedRights(m.a, m.first)))
            << toString(kind);
        fault::RunOutcome tampered;
        fault::probeFinalState(m.sys, tampered);
        EXPECT_FALSE(tampered.hwWithinCanonical) << toString(kind);
    }
}

TEST(CachedRightsTest, DifferentialVerdictCatchesARaisedEntry)
{
    // Tampering inside the stream driver of one model fails exactly
    // that model's runs through the shared final-state probe.
    fault::CampaignResult verdict;
    verdict.references = 1;
    fault::runDifferential(
        verdict, fault::FaultConfig{}, "", "expected",
        [](core::System &sys, fault::RunOutcome &run) {
            const os::DomainId d = sys.kernel().createDomain("d");
            const vm::SegmentId seg = sys.kernel().createSegment("s", 2);
            sys.kernel().attach(d, seg, vm::Access::ReadWrite);
            const vm::Vpn vpn = sys.state().segments.find(seg)->firstPage;
            run.decisions.push_back(sys.store(vm::baseOf(vpn)) ? 1 : 0);
            if (sys.config().model == ModelKind::Conventional) {
                ASSERT_TRUE(raiseCachedEntry(sys.model(), d, vpn));
            }
        });
    EXPECT_EQ(verdict.violations,
              (Violations{"conventional+clean: hardware rights exceed "
                          "canonical rights",
                          "conventional+faults: hardware rights exceed "
                          "canonical rights"}));
}

TEST(CachedRightsTest, McQuiescenceCheckCatchesARaisedEntry)
{
    for (ModelKind kind : allModels()) {
        mc::McConfig config;
        config.system = SystemConfig::forModel(kind);
        config.cores = 2;
        // Few enough pages that no entry is ever evicted, and no churn,
        // so nothing but the check can touch the raised entry.
        config.workload.stepsPerCore = 200;
        config.workload.sharedPages = 4;
        config.workload.privatePages = 2;
        mc::McSystem machine(config);
        const mc::McResult first = machine.run(10);
        ASSERT_FALSE(machine.done()) << toString(kind);
        EXPECT_EQ(first.hwViolations, 0u) << toString(kind);

        // Tamper with the last core.
        const unsigned core = machine.coreCount() - 1;
        const os::DomainId domain = machine.domainOf(core);
        os::ProtectionModel &model = machine.coreModel(core);
        const mc::McLayout &layout = machine.layoutOf(core);
        vm::Vpn vpn = vm::pageOf(layout.sharedBase);
        while (model.cachedRights(domain, vpn) == vm::Access::None &&
               vpn < vm::pageOf(layout.sharedBase) + layout.sharedPages)
            vpn = vpn + 1;
        ASSERT_NE(model.cachedRights(domain, vpn), vm::Access::None)
            << toString(kind);
        ASSERT_TRUE(raiseCachedEntry(model, domain, vpn))
            << toString(kind);

        // A core that goes on to use the raised entry also trips the
        // stale-grant invariant; the hw-subset check must fire either
        // way.
        const mc::McResult result = machine.run();
        EXPECT_GT(result.hwViolations, 0u)
            << toString(kind) << ": " << result.firstViolation;
    }
}

TEST(CachedRightsTest, SweepMovesNoStatAndNoSnapshotByte)
{
    for (ModelKind kind : allModels()) {
        SmallMachine m(kind);
        auto &kernel = m.sys.kernel();
        ASSERT_TRUE(m.sys.store(vm::baseOf(m.first)));
        ASSERT_TRUE(m.sys.load(vm::baseOf(m.first + 1)));
        kernel.setPageRights(m.a, m.first + 2, vm::Access::Read);
        ASSERT_TRUE(m.sys.load(vm::baseOf(m.first + 2)));
        kernel.restrictPage(m.first + 3, vm::Access::Read);
        kernel.switchTo(m.b);
        ASSERT_TRUE(m.sys.load(vm::baseOf(m.first)));

        const std::string stats_before = statsDump(m.sys);
        const std::vector<u8> image_before = image(m.sys);
        const auto &state = m.sys.state();
        u64 granted = 0;
        for (const auto &[domain, record] : state.domains()) {
            for (vm::SegmentId id : state.segments.liveIds()) {
                const vm::Segment *seg = state.segments.find(id);
                for (u64 p = 0; p < seg->pages; ++p) {
                    const vm::Vpn vpn = seg->firstPage + p;
                    const vm::Access hw =
                        m.sys.model().cachedRights(domain, vpn);
                    granted += hw != vm::Access::None;
                    EXPECT_TRUE(vm::includes(
                        kernel.canonicalRights(domain, vpn), hw))
                        << toString(kind);
                }
            }
        }
        EXPECT_GT(granted, 0u) << toString(kind);
        EXPECT_EQ(statsDump(m.sys), stats_before) << toString(kind);
        EXPECT_EQ(image(m.sys), image_before) << toString(kind);
    }
}
