/**
 * @file
 * The datacenter-scale engine's test suite (src/scale/ and the
 * clustered-PLB / coalesced-IPI machinery underneath it).
 *
 * Four pillars:
 *
 *  - ClusterPlb unit tests: VPN-range routing, the exactness of the
 *    L2 directory through every entry birth and death, directory-
 *    driven bank skipping, and the snapshot geometry guard.
 *  - Determinism and equivalence at scale: clustered-vs-flat decision
 *    identity, a 256-core explorer run bit-identical at host thread
 *    counts 1 and 4, mid-storm snapshot/restore resume equivalence,
 *    and the coalesced-vs-uncoalesced shootdown-stats reconciliation
 *    (the stale window may differ; the delivered-purge set may not).
 *  - Config death tests for the new engine knobs (cores=, mc_quantum=,
 *    mc_ipi_delay=, mc_coalesce=, plb_clusters=, plb_range_shift=).
 *  - Population: the analytic space report cross-checked entry for
 *    entry against the real vm::ProtectionTable and
 *    vm::LinearPageTableModel at small N, plus the segment-allocator
 *    stress invariants.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mc/explorer.hh"
#include "core/mc/mc_system.hh"
#include "hw/cluster_plb.hh"
#include "scale/population.hh"
#include "scale/storm.hh"
#include "snap/snapshot.hh"
#include "vm/linear_page_table.hh"
#include "vm/prot_table.hh"

using namespace sasos;
namespace mc = sasos::core::mc;

namespace
{

/** SASOS_FATAL rerouted into a catchable exception, per test scope. */
struct FatalRejection : std::runtime_error
{
    explicit FatalRejection(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

class ScopedFatalThrow
{
  public:
    ScopedFatalThrow()
    {
        previous_ = setFatalHandler([](const std::string &message) -> void {
            throw FatalRejection(message);
        });
    }
    ~ScopedFatalThrow() { setFatalHandler(previous_); }

  private:
    FatalHandler previous_;
};

/** Expect `fn` to die with a fatal whose message contains `needle`. */
template <typename Fn>
void
expectFatalContaining(Fn fn, const std::string &needle)
{
    ScopedFatalThrow reroute;
    try {
        fn();
        FAIL() << "expected a fatal containing \"" << needle << "\"";
    } catch (const FatalRejection &fatal) {
        EXPECT_NE(std::string(fatal.what()).find(needle),
                  std::string::npos)
            << "fatal message was: " << fatal.what();
    }
}

hw::PlbConfig
clusterConfig(unsigned clusters, std::size_t ways, int range_shift)
{
    hw::PlbConfig config;
    config.ways = ways;
    config.clusters = clusters;
    config.rangeShift = range_shift;
    config.sizeShifts = {vm::kPageShift};
    return config;
}

vm::VAddr
pageVa(u64 vpn)
{
    return vm::baseOf(vm::Vpn(vpn));
}

/** Recompute the directory from the banks and compare. */
void
expectDirectoryExact(const hw::ClusterPlb &plb)
{
    std::map<u64, u32> expect;
    plb.forEach([&](hw::DomainId, vm::VAddr va, int, vm::Access) {
        ++expect[(va.raw() >> vm::kPageShift) >> plb.config().rangeShift];
    });
    EXPECT_EQ(plb.liveRanges(), expect.size());
    std::size_t occupancy = 0;
    for (const auto &[range, count] : expect) {
        occupancy += count;
        // Every live range must answer a countRange over its span.
        const vm::Vpn first(range << plb.config().rangeShift);
        EXPECT_EQ(plb.countRange(std::nullopt, first,
                                 plb.rangePages()),
                  count);
    }
    EXPECT_EQ(plb.occupancy(), occupancy);
}

std::string
dumpOf(mc::McSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

void
expectSameResult(const mc::McResult &a, const mc::McResult &b)
{
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.kernelOps, b.kernelOps);
    EXPECT_EQ(a.shootdowns, b.shootdowns);
    EXPECT_EQ(a.acks, b.acks);
    EXPECT_EQ(a.coalescedAcks, b.coalescedAcks);
    EXPECT_EQ(a.staleWindowRefs, b.staleWindowRefs);
    EXPECT_EQ(a.staleGrants, b.staleGrants);
    EXPECT_EQ(a.invariantViolations, b.invariantViolations);
    EXPECT_EQ(a.hwViolations, b.hwViolations);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.coreCompleted, b.coreCompleted);
    EXPECT_EQ(a.coreFailed, b.coreFailed);
    EXPECT_EQ(a.quiescentOutcomes, b.quiescentOutcomes);
    EXPECT_EQ(a.firstViolation, b.firstViolation);
}

} // namespace

// ---------------------------------------------------------------------
// ClusterPlb: routing and the L2 directory

TEST(ClusterPlbTest, RoutesEntriesByVpnRange)
{
    stats::Group root("t");
    hw::ClusterPlb plb(clusterConfig(4, 32, 2), &root);
    ASSERT_EQ(plb.clusters(), 4u);
    EXPECT_EQ(plb.rangePages(), 4u);
    EXPECT_EQ(plb.capacity(), 32u);

    // Consecutive 4-page ranges rotate across the 4 banks.
    EXPECT_EQ(plb.bankOf(0), 0u);
    EXPECT_EQ(plb.bankOf(3), 0u);
    EXPECT_EQ(plb.bankOf(4), 1u);
    EXPECT_EQ(plb.bankOf(15), 3u);
    EXPECT_EQ(plb.bankOf(16), 0u);

    for (u64 vpn : {u64{0}, u64{5}, u64{10}, u64{15}, u64{16}}) {
        plb.insert(1, pageVa(vpn), vm::kPageShift, vm::Access::Read);
        const unsigned owner = plb.bankOf(vpn);
        EXPECT_TRUE(plb.bank(owner).peek(1, pageVa(vpn)).has_value())
            << "vpn " << vpn;
        for (unsigned b = 0; b < plb.clusters(); ++b)
            if (b != owner)
                EXPECT_FALSE(plb.bank(b).peek(1, pageVa(vpn)).has_value())
                    << "vpn " << vpn << " bank " << b;
    }
    EXPECT_EQ(plb.occupancy(), 5u);
    // Ranges 0,1,2,3 and 4 are live: vpn 16 shares bank 0 with vpn 0
    // but lives in its own range.
    EXPECT_EQ(plb.liveRanges(), 5u);
    expectDirectoryExact(plb);

    // Probes route: a hit in the owning bank, a clean miss elsewhere.
    EXPECT_TRUE(plb.lookup(1, pageVa(5)).has_value());
    EXPECT_FALSE(plb.lookup(1, pageVa(6)).has_value());
    EXPECT_EQ(plb.lookups.value(), 2u);
    EXPECT_EQ(plb.hits.value(), 1u);
    EXPECT_EQ(plb.misses.value(), 1u);
}

TEST(ClusterPlbTest, DirectoryStaysExactThroughMaintenance)
{
    stats::Group root("t");
    hw::ClusterPlb plb(clusterConfig(4, 64, 1), &root);
    Rng rng(7);
    for (u64 i = 0; i < 40; ++i)
        plb.insert(static_cast<hw::DomainId>(1 + (i % 3)),
                   pageVa(rng.nextBelow(64)), vm::kPageShift,
                   vm::Access::ReadWrite);
    expectDirectoryExact(plb);

    plb.purgeRange(std::nullopt, vm::Vpn(8), 12);
    expectDirectoryExact(plb);
    EXPECT_EQ(plb.countRange(std::nullopt, vm::Vpn(8), 12), 0u);

    // A rights-range update at page grain changes rights in place;
    // no entry may die, so the directory must not move.
    const std::size_t before = plb.occupancy();
    plb.updateRightsRange(std::nullopt, vm::Vpn(0), 64,
                          vm::Access::Read);
    EXPECT_EQ(plb.occupancy(), before);
    expectDirectoryExact(plb);

    plb.intersectRightsRange(vm::Vpn(0), 64, vm::Access::Read);
    expectDirectoryExact(plb);

    plb.purgeDomain(2);
    expectDirectoryExact(plb);
    plb.forEach([&](hw::DomainId domain, vm::VAddr, int, vm::Access) {
        EXPECT_NE(domain, 2u);
    });

    while (plb.occupancy() > 5)
        EXPECT_TRUE(plb.evictOne(rng));
    expectDirectoryExact(plb);

    const u64 remaining = plb.occupancy();
    EXPECT_EQ(plb.purgeAll(), remaining);
    EXPECT_EQ(plb.occupancy(), 0u);
    EXPECT_EQ(plb.liveRanges(), 0u);
}

TEST(ClusterPlbTest, DirectorySkipsUntouchedBanks)
{
    // Entries confined to range 0 (bank 0): a scan over a disjoint
    // span must be proven clean by the directory without sweeping.
    stats::Group root("t");
    hw::ClusterPlb plb(clusterConfig(4, 32, 4), &root);
    for (u64 vpn = 0; vpn < 8; ++vpn)
        plb.insert(1, pageVa(vpn), vm::kPageShift, vm::Access::Read);
    ASSERT_EQ(plb.liveRanges(), 1u);

    const hw::PurgeResult miss =
        plb.purgeRange(std::nullopt, vm::Vpn(64), 64);
    EXPECT_EQ(miss.invalidated, 0u);
    EXPECT_EQ(miss.scanned, 0u);
    EXPECT_EQ(plb.dirBankSkips.value(), plb.clusters());
    EXPECT_EQ(plb.dirBankScans.value(), 0u);

    const hw::PurgeResult hit =
        plb.purgeRange(std::nullopt, vm::Vpn(0), 4);
    EXPECT_EQ(hit.invalidated, 4u);
    EXPECT_GT(hit.scanned, 0u);
    EXPECT_EQ(plb.dirBankScans.value(), 1u);
    expectDirectoryExact(plb);
}

TEST(ClusterPlbTest, SaveLoadRebuildsDirectoryAndGuardsGeometry)
{
    stats::Group root("t");
    hw::ClusterPlb plb(clusterConfig(4, 32, 2), &root);
    Rng rng(3);
    for (u64 i = 0; i < 20; ++i)
        plb.insert(1, pageVa(rng.nextBelow(40)), vm::kPageShift,
                   vm::Access::ReadWrite);

    snap::SnapWriter writer;
    plb.save(writer);
    const std::vector<u8> image = std::move(writer).seal();

    stats::Group root2("t2");
    hw::ClusterPlb restored(clusterConfig(4, 32, 2), &root2);
    snap::SnapReader reader(image);
    restored.load(reader);
    EXPECT_EQ(restored.occupancy(), plb.occupancy());
    EXPECT_EQ(restored.liveRanges(), plb.liveRanges());
    expectDirectoryExact(restored);
    plb.forEach([&](hw::DomainId domain, vm::VAddr va, int, vm::Access) {
        EXPECT_TRUE(restored.peek(domain, va).has_value());
    });

    stats::Group root3("t3");
    hw::ClusterPlb wrong(clusterConfig(8, 32, 2), &root3);
    snap::SnapReader bad(image);
    expectFatalContaining([&] { wrong.load(bad); },
                          "geometry mismatch");
}

// ---------------------------------------------------------------------
// Flat-vs-clustered decision identity (system level)

TEST(ScaleIdentityTest, ClusteredDecisionsMatchFlatPlb)
{
    for (unsigned cores : {1u, 4u, 16u}) {
        mc::McConfig flat = scale::stormConfig(cores, 120, 11);
        mc::McConfig clustered =
            scale::clusteredStormConfig(cores, 120, 11, 8);
        mc::McSystem flat_sys(flat);
        mc::McSystem cl_sys(clustered);
        const mc::McResult a = flat_sys.run();
        const mc::McResult b = cl_sys.run();
        // The interleaving and all engine-level traffic are
        // organization-independent; so is the quiescent projection.
        EXPECT_EQ(a.slots, b.slots) << cores;
        EXPECT_EQ(a.kernelOps, b.kernelOps) << cores;
        EXPECT_EQ(a.shootdowns, b.shootdowns) << cores;
        EXPECT_EQ(a.acks, b.acks) << cores;
        EXPECT_EQ(a.quiescentOutcomes, b.quiescentOutcomes) << cores;
        EXPECT_EQ(a.invariantViolations + a.hwViolations, 0u) << cores;
        EXPECT_EQ(b.invariantViolations + b.hwViolations, 0u) << cores;
    }
}

TEST(ScaleIdentityTest, ImmediateAckFullVectorMatches)
{
    // With mc_ipi_delay=0 every reference is quiescent, so even the
    // completed/failed totals must agree between organizations.
    mc::McConfig flat = scale::stormConfig(8, 150, 5);
    mc::McConfig clustered = scale::clusteredStormConfig(8, 150, 5, 8);
    flat.ipiDelaySteps = 0;
    clustered.ipiDelaySteps = 0;
    mc::McSystem flat_sys(flat);
    mc::McSystem cl_sys(clustered);
    const mc::McResult a = flat_sys.run();
    const mc::McResult b = cl_sys.run();
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.quiescentOutcomes, b.quiescentOutcomes);
    EXPECT_EQ(a.quiescentOutcomes.size(),
              static_cast<std::size_t>(a.completed + a.failed));
}

// ---------------------------------------------------------------------
// Determinism at scale

TEST(ScaleDeterminismTest, Explorer256CoresBitIdenticalAcrossThreads)
{
    mc::ExplorerConfig config;
    config.base = scale::clusteredStormConfig(256, 12, 9, 8);
    config.base.coalesceWindow = 4;
    // The per-reference stale-rights invariant stays on inside
    // issueRef(); only the O(cores * pages) quiescence sweep is
    // skipped to keep a 256-core unit test fast.
    config.base.checkInvariants = false;
    config.seeds = 2;
    config.threads = 1;
    const mc::ExplorerResult serial = mc::explore(config);
    config.threads = 4;
    const mc::ExplorerResult threaded = mc::explore(config);

    ASSERT_EQ(serial.runs.size(), threaded.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        const mc::RunSummary &a = serial.runs[i];
        const mc::RunSummary &b = threaded.runs[i];
        EXPECT_EQ(a.scheduleSeed, b.scheduleSeed);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.failed, b.failed);
        EXPECT_EQ(a.shootdowns, b.shootdowns);
        EXPECT_EQ(a.staleWindowRefs, b.staleWindowRefs);
        EXPECT_EQ(a.staleGrants, b.staleGrants);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.quiescentOutcomes, b.quiescentOutcomes);
    }
    EXPECT_EQ(serial.totalViolations, 0u);
    EXPECT_EQ(threaded.totalViolations, 0u);
}

TEST(ScaleDeterminismTest, MidStormSnapshotResumesEquivalently)
{
    mc::McConfig config = scale::clusteredStormConfig(8, 300, 13, 8);
    config.coalesceWindow = 4;

    mc::McSystem straight(config);
    const mc::McResult full = straight.run();
    const std::string fullStats = dumpOf(straight);

    mc::McSystem first(config);
    first.run(120);
    ASSERT_FALSE(first.done())
        << "partial run finished early; shrink max_slots";

    snap::Snapshotter snapper;
    snapper.add(first);
    snap::Restorer restorer(std::move(snapper).finish());
    mc::McSystem resumed(config);
    restorer.restore(resumed);
    restorer.finish();

    const mc::McResult continued = resumed.run();
    EXPECT_TRUE(resumed.done());
    expectSameResult(full, continued);
    EXPECT_EQ(fullStats, dumpOf(resumed));
}

TEST(ScaleDeterminismTest, CoalescedStatsReconcileWithUncoalesced)
{
    // Coalescing changes the interleaving (piggy-backed acks skip the
    // dispatch charge), so the two runs are different executions. What
    // must reconcile: every shootdown still collects cores-1 acks,
    // the per-core scripts still execute in full, and nobody violates
    // the stale-rights invariants.
    mc::McConfig base = scale::clusteredStormConfig(16, 150, 17, 8);
    mc::McConfig coalesced = base;
    coalesced.coalesceWindow = 4;

    mc::McSystem plain_sys(base);
    mc::McSystem co_sys(coalesced);
    const mc::McResult plain = plain_sys.run();
    const mc::McResult co = co_sys.run();

    EXPECT_EQ(plain.acks, plain.shootdowns * 15);
    EXPECT_EQ(co.acks, co.shootdowns * 15);
    EXPECT_EQ(plain.coalescedAcks, 0u);
    EXPECT_GT(co.coalescedAcks, 0u);
    EXPECT_LE(co.coalescedAcks, co.acks);
    // Scripts are pre-decided per core: the step mix cannot depend on
    // the interleaving, so the reference and kernel-op totals agree.
    EXPECT_EQ(plain.kernelOps, co.kernelOps);
    EXPECT_EQ(plain.completed + plain.failed, co.completed + co.failed);
    EXPECT_EQ(plain.invariantViolations + plain.hwViolations, 0u);
    EXPECT_EQ(co.invariantViolations + co.hwViolations, 0u);
}

TEST(ScaleDeterminismTest, ZeroCoalesceWindowIsByteIdentical)
{
    // mc_coalesce=0 must leave the engine exactly as it was: same
    // result, same stats dump, against a fresh run of the same seed.
    const mc::McConfig config = scale::clusteredStormConfig(8, 150, 19, 4);
    mc::McSystem a(config);
    mc::McSystem b(config);
    const mc::McResult ra = a.run();
    const mc::McResult rb = b.run();
    expectSameResult(ra, rb);
    EXPECT_EQ(dumpOf(a), dumpOf(b));
}

// ---------------------------------------------------------------------
// Config death tests for the scale knobs

TEST(ScaleConfigTest, CoreCountBoundsAreFatal)
{
    for (const char *bad : {"0", "1025", "4096"}) {
        Options options;
        options.set("cores", bad);
        expectFatalContaining(
            [&] { (void)mc::McConfig::fromOptions(options); },
            "cores must be in [1, 1024]");
    }
    Options ok;
    ok.set("cores", "1024");
    EXPECT_EQ(mc::McConfig::fromOptions(ok).cores, 1024u);
}

TEST(ScaleConfigTest, QuantumAndIpiBoundsAreFatal)
{
    Options zero_quantum;
    zero_quantum.set("mc_quantum", "0");
    expectFatalContaining(
        [&] { (void)mc::McConfig::fromOptions(zero_quantum); },
        "mc_quantum must be in [1,");

    Options big_delay;
    big_delay.set("mc_ipi_delay", "1048577");
    expectFatalContaining(
        [&] { (void)mc::McConfig::fromOptions(big_delay); },
        "mc_ipi_delay must be at most");

    Options big_window;
    big_window.set("mc_coalesce", "1048577");
    expectFatalContaining(
        [&] { (void)mc::McConfig::fromOptions(big_window); },
        "mc_coalesce must be at most");

    Options ok;
    ok.set("mc_coalesce", "4");
    EXPECT_EQ(mc::McConfig::fromOptions(ok).coalesceWindow, 4u);
}

TEST(ScaleConfigTest, PlbClusterBoundsAreFatal)
{
    for (const char *bad : {"0", "257"}) {
        Options options;
        options.set("plb_clusters", bad);
        expectFatalContaining(
            [&] {
                (void)core::SystemConfig::fromOptions(
                    options, core::SystemConfig::plbSystem());
            },
            "plb_clusters must be in [1, 256]");
    }

    Options bad_shift;
    bad_shift.set("plb_range_shift", "29");
    expectFatalContaining(
        [&] {
            (void)core::SystemConfig::fromOptions(
                bad_shift, core::SystemConfig::plbSystem());
        },
        "plb_range_shift must be in [0, 28]");

    // Geometry that leaves a bank with zero ways is a config error.
    Options starved;
    starved.set("plb_clusters", "64");
    starved.set("plbEntries", "32");
    expectFatalContaining(
        [&] {
            (void)core::SystemConfig::fromOptions(
                starved, core::SystemConfig::plbSystem());
        },
        "must be at least plb_clusters");
}

// ---------------------------------------------------------------------
// Population: the analytic report vs the real structures

TEST(PopulationTest, SmallPopulationCrossChecksRealTables)
{
    scale::PopulationConfig config;
    config.domains = 64;
    config.segments = 32;
    config.maxAttach = 6;
    config.maxSegPages = 64;
    config.maxGapPages = 512;
    config.overridePerMille = 300;
    config.seed = 7;
    const scale::Population population(config);
    const scale::SpaceReport report = population.spaceReport();

    u64 prot_bytes = 0;
    u64 flat_bytes = 0;
    u64 two_level_bytes = 0;
    u64 overrides = 0;
    for (u64 d = 0; d < config.domains; ++d) {
        vm::ProtectionTable table;
        population.materialize(d, table);
        prot_bytes += table.spaceBytes(16);
        overrides += table.pageOverrides();

        vm::LinearPageTableModel linear(8);
        for (u64 j = 0; j < population.attachmentCount(d); ++j) {
            const u64 seg = population.attachmentSeg(d, j);
            linear.addRange(population.segmentFirstPage(seg),
                            population.segmentPages(seg));
        }
        flat_bytes += linear.flatBytes();
        two_level_bytes += linear.twoLevelBytes();
    }
    // The analytic accounting and the real structures must agree to
    // the byte: this is what licenses running the report at 10^6
    // domains without materializing a million tables.
    EXPECT_EQ(prot_bytes, report.protectionTableBytes);
    EXPECT_EQ(overrides, report.totalOverrides);
    EXPECT_EQ(flat_bytes, report.linearFlatBytes);
    EXPECT_EQ(two_level_bytes, report.linearTwoLevelBytes);
    EXPECT_EQ(report.sasBytes,
              report.globalPageTableBytes + report.protectionTableBytes);
    EXPECT_GT(report.linearFlatBytes, report.sasBytes);
}

TEST(PopulationTest, PopulationIsDeterministic)
{
    scale::PopulationConfig config;
    config.domains = 500;
    config.segments = 64;
    config.seed = 21;
    const scale::Population a(config);
    const scale::Population b(config);
    const scale::SpaceReport ra = a.spaceReport();
    const scale::SpaceReport rb = b.spaceReport();
    EXPECT_EQ(ra.totalMappedPages, rb.totalMappedPages);
    EXPECT_EQ(ra.totalAttachments, rb.totalAttachments);
    EXPECT_EQ(ra.totalOverrides, rb.totalOverrides);
    EXPECT_EQ(ra.linearFlatBytes, rb.linearFlatBytes);
    EXPECT_EQ(ra.linearTwoLevelBytes, rb.linearTwoLevelBytes);
    for (u64 d = 0; d < config.domains; d += 37) {
        ASSERT_EQ(a.attachmentCount(d), b.attachmentCount(d));
        for (u64 j = 0; j < a.attachmentCount(d); ++j) {
            EXPECT_EQ(a.attachmentSeg(d, j), b.attachmentSeg(d, j));
            EXPECT_EQ(a.attachmentHasOverride(d, j),
                      b.attachmentHasOverride(d, j));
        }
    }
}

TEST(PopulationTest, SegmentAllocatorSurvivesChurn)
{
    const scale::SegmentStressReport report =
        scale::stressSegmentAllocator(3, 4000, 256);
    EXPECT_TRUE(report.passed())
        << report.overlapFailures << " overlap / "
        << report.reuseFailures << " reuse failures";
    EXPECT_GT(report.creates, 0u);
    EXPECT_GT(report.destroys, 0u);
    EXPECT_GT(report.maxLive, 1u);
    EXPECT_EQ(report.creates - report.destroys, report.liveAtEnd);
}

