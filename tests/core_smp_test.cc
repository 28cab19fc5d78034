/**
 * @file
 * Multiprocessor tests: shootdown broadcast, per-CPU locality of
 * switches and faults, IPI accounting, and the cross-CPU safety
 * invariant (Section 4.1.3's "on each processor").
 */

#include <gtest/gtest.h>

#include "cached_entry.hh"
#include "core/smp.hh"
#include "sim/random.hh"
#include "workload/dvm.hh"

using namespace sasos;
using namespace sasos::core;

namespace
{

const char *
modelName(const ::testing::TestParamInfo<ModelKind> &info)
{
    switch (info.param) {
      case ModelKind::Plb:
        return "plb";
      case ModelKind::PageGroup:
        return "pg";
      case ModelKind::Conventional:
        return "conv";
      case ModelKind::Pkey:
        return "pkey";
    }
    return "unknown";
}

} // namespace

class SmpTest : public ::testing::TestWithParam<ModelKind>
{
  protected:
    SmpTest() : sys_(SystemConfig::forModel(GetParam()), 4)
    {
        for (int n = 0; n < 4; ++n) {
            nodes_.push_back(
                sys_.kernel().createDomain("node" + std::to_string(n)));
        }
        seg_ = sys_.kernel().createSegment("shared", 8);
        for (os::DomainId node : nodes_)
            sys_.kernel().attach(node, seg_, vm::Access::ReadWrite);
        base_ = sys_.state().segments.find(seg_)->base();
    }

    SmpSystem sys_;
    std::vector<os::DomainId> nodes_;
    vm::SegmentId seg_ = 0;
    vm::VAddr base_;
};

TEST_P(SmpTest, EveryCpuCanAccessSharedData)
{
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        sys_.runOn(cpu, nodes_[cpu]);
        EXPECT_TRUE(sys_.store(base_ + cpu * 64)) << "cpu " << cpu;
    }
}

TEST_P(SmpTest, RightsChangeShootsDownEveryCpu)
{
    // Warm every CPU's protection state for the page.
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        sys_.runOn(cpu, nodes_[cpu]);
        EXPECT_TRUE(sys_.store(base_));
    }
    // Revoke write for node 2 from CPU 0.
    sys_.runOn(0, nodes_[0]);
    sys_.kernel().setPageRights(nodes_[2], vm::pageOf(base_),
                                vm::Access::Read);
    // CPU 2 must see the revocation despite its warm structures.
    sys_.runOn(2, nodes_[2]);
    EXPECT_FALSE(sys_.store(base_));
    EXPECT_TRUE(sys_.load(base_));
    // Other CPUs unaffected.
    sys_.runOn(1, nodes_[1]);
    EXPECT_TRUE(sys_.store(base_));
}

TEST_P(SmpTest, UnmapShootdownFlushesEveryCpu)
{
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        sys_.runOn(cpu, nodes_[cpu]);
        EXPECT_TRUE(sys_.store(base_));
    }
    const u64 flush_before =
        sys_.account().byCategory(CostCategory::Flush).count();
    sys_.kernel().unmapPage(vm::pageOf(base_));
    const u64 flush_cycles =
        sys_.account().byCategory(CostCategory::Flush).count() -
        flush_before;
    // Every CPU flushed its cached line(s); at minimum the page scan
    // ran on all four.
    const u64 one_cpu_scan = (vm::kPageBytes / 32) *
                             sys_.costs().cacheFlushLine.count();
    EXPECT_GE(flush_cycles, 4 * one_cpu_scan);
    // And each CPU demand-faults the page back independently.
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        sys_.runOn(cpu, nodes_[cpu]);
        EXPECT_TRUE(sys_.load(base_));
    }
}

TEST_P(SmpTest, IpisChargedPerRemoteCpu)
{
    sys_.runOn(0, nodes_[0]);
    sys_.store(base_);
    const u64 ipis_before = sys_.ipisSent.value();
    const u64 work_before =
        sys_.account().byCategory(CostCategory::KernelWork).count();
    sys_.kernel().restrictPage(vm::pageOf(base_), vm::Access::None);
    EXPECT_EQ(sys_.ipisSent.value(), ipis_before + 3);
    EXPECT_GE(sys_.account().byCategory(CostCategory::KernelWork).count() -
                  work_before,
              3 * sys_.costs().interProcessorInterrupt.count());
}

TEST_P(SmpTest, DomainSwitchIsLocalToItsCpu)
{
    sys_.runOn(0, nodes_[0]);
    sys_.load(base_);
    const u64 shootdowns_before = sys_.shootdowns.value();
    sys_.runOn(0, nodes_[1]); // switch on CPU 0 only
    EXPECT_EQ(sys_.shootdowns.value(), shootdowns_before);
}

TEST_P(SmpTest, FanOutDropMemoReachesEveryCpu)
{
    // CPU 1's second store is a same-page memo hit. Lower its cached
    // rights behind the model's back, drop the memo through the
    // fan-out, and the next store must probe the lowered entry and
    // fault, not replay the memo's stale grant.
    sys_.runOn(1, nodes_[1]);
    ASSERT_TRUE(sys_.store(base_));
    ASSERT_TRUE(sys_.store(base_));
    ASSERT_TRUE(test::pokeCachedRights(sys_.models().core(1), nodes_[1],
                                       vm::pageOf(base_), vm::Access::Read));
    sys_.models().dropMemo();
    const u64 faults = sys_.kernel().protectionFaults.value();
    EXPECT_TRUE(sys_.store(base_)); // the kernel repairs the stale deny
    EXPECT_EQ(sys_.kernel().protectionFaults.value(), faults + 1);
}

TEST_P(SmpTest, SafetyInvariantAcrossCpus)
{
    Rng rng(99);
    for (int op = 0; op < 1500; ++op) {
        const unsigned cpu = static_cast<unsigned>(rng.nextBelow(4));
        sys_.runOn(cpu, nodes_[cpu]);
        if (rng.bernoulli(0.1)) {
            // A rights change issued from this CPU.
            const os::DomainId target =
                nodes_[rng.nextBelow(nodes_.size())];
            const vm::Vpn vpn = vm::pageOf(base_) + rng.nextBelow(8);
            const vm::Access rights =
                rng.bernoulli(0.5)
                    ? vm::Access::Read
                    : (rng.bernoulli(0.5) ? vm::Access::ReadWrite
                                          : vm::Access::None);
            sys_.kernel().setPageRights(target, vpn, rights);
            continue;
        }
        const vm::VAddr va = base_ + rng.nextBelow(8 * vm::kPageBytes);
        const vm::AccessType type = rng.bernoulli(0.4)
                                        ? vm::AccessType::Store
                                        : vm::AccessType::Load;
        const vm::Access canonical = sys_.kernel().canonicalRights(
            nodes_[cpu], vm::pageOf(va));
        const bool ok = sys_.access(va, type);
        ASSERT_EQ(ok,
                  vm::includes(canonical, vm::requiredRight(type)))
            << "op " << op << " cpu " << cpu;
    }
}

TEST_P(SmpTest, SingleCpuMachineSendsNoIpis)
{
    SmpSystem uni(SystemConfig::forModel(GetParam()), 1);
    const os::DomainId d = uni.kernel().createDomain("d");
    const vm::SegmentId seg = uni.kernel().createSegment("s", 2);
    uni.kernel().attach(d, seg, vm::Access::ReadWrite);
    uni.runOn(0, d);
    const vm::VAddr base = uni.state().segments.find(seg)->base();
    uni.store(base);
    uni.kernel().restrictPage(vm::pageOf(base), vm::Access::None);
    EXPECT_EQ(uni.ipisSent.value(), 0u);
}

TEST_P(SmpTest, DvmRunsWithOneNodePerCpu)
{
    wl::DvmConfig dvm;
    dvm.nodes = 4;
    dvm.quanta = 24;
    dvm.refsPerQuantum = 30;
    core::SmpSystem smp(SystemConfig::forModel(GetParam()), 4);
    const wl::DvmResult result = wl::DvmWorkload(dvm).run(smp);
    EXPECT_EQ(result.references, 24u * 30u);
    EXPECT_GT(result.readFaults + result.writeFaults, 0u);
    // Coherence rights changes crossed CPUs.
    EXPECT_GT(smp.ipisSent.value(), 0u);
}

TEST_P(SmpTest, SmpDvmCostsMoreThanTimesharedDvm)
{
    // The shootdown tax: the same protocol on N CPUs pays IPIs the
    // single-CPU run does not.
    wl::DvmConfig dvm;
    dvm.nodes = 4;
    dvm.quanta = 24;
    dvm.refsPerQuantum = 30;
    core::System uni(SystemConfig::forModel(GetParam()));
    const u64 uni_cycles =
        wl::DvmWorkload(dvm).run(uni).cycles.totalExcludingIo().count();
    core::SmpSystem smp(SystemConfig::forModel(GetParam()), 4);
    const u64 smp_cycles =
        wl::DvmWorkload(dvm).run(smp).cycles.totalExcludingIo().count();
    EXPECT_GT(smp_cycles, uni_cycles);
}

class SmpPropertyTest : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(SmpPropertyTest, NoCpuGrantsOrCachesBeyondCanonical)
{
    // Three CPUs, each pinned to its own domain, churn attachments and
    // rights over two 4-page segments between references. After every
    // reference, no grant may exceed the issuing domain's canonical
    // rights, and no CPU's cached rights may exceed its own domain's.
    // An attach that raises a segment's rights union changes page-
    // group protections on every CPU, so it must be shot down too.
    constexpr unsigned kCpus = 3;
    constexpr u64 kPages = 4;
    const vm::Access kRights[] = {vm::Access::None, vm::Access::Read,
                                  vm::Access::ReadWrite};
    u64 over_grants = 0;
    u64 hw_over = 0;
    std::string first;
    for (u64 seed = 1; seed <= 40; ++seed) {
        SmpSystem sys(SystemConfig::forModel(GetParam()), kCpus);
        os::Kernel &kernel = sys.kernel();
        std::vector<os::DomainId> nodes;
        for (unsigned cpu = 0; cpu < kCpus; ++cpu)
            nodes.push_back(kernel.createDomain("n" + std::to_string(cpu)));
        std::vector<const vm::Segment *> segs;
        for (int s = 0; s < 2; ++s) {
            const vm::SegmentId id =
                kernel.createSegment("s" + std::to_string(s), kPages);
            segs.push_back(sys.state().segments.find(id));
            for (os::DomainId node : nodes)
                kernel.attach(node, id, vm::Access::Read);
        }
        Rng rng(seed);
        for (int op = 0; op < 600; ++op) {
            const unsigned cpu = static_cast<unsigned>(rng.nextBelow(kCpus));
            sys.runOn(cpu, nodes[cpu]);
            const os::DomainId target = nodes[rng.nextBelow(kCpus)];
            const vm::Segment &seg = *segs[rng.nextBelow(segs.size())];
            const vm::Access rights = kRights[1 + rng.nextBelow(2)];
            const u64 roll = rng.nextBelow(100);
            if (roll < 8) {
                if (sys.state().domain(target).prot.isAttached(seg.id))
                    kernel.detach(target, seg.id);
                else
                    kernel.attach(target, seg.id, rights);
                continue;
            }
            if (roll < 12) {
                if (sys.state().domain(target).prot.isAttached(seg.id))
                    kernel.setSegmentRights(target, seg.id, rights);
                continue;
            }
            if (roll < 16) {
                kernel.setPageRights(target,
                                     seg.firstPage + rng.nextBelow(kPages),
                                     kRights[rng.nextBelow(3)]);
                continue;
            }
            const vm::VAddr va =
                seg.base() + rng.nextBelow(kPages * vm::kPageBytes);
            const vm::AccessType type = rng.bernoulli(0.5)
                                            ? vm::AccessType::Store
                                            : vm::AccessType::Load;
            const vm::Access canonical =
                kernel.canonicalRights(nodes[cpu], vm::pageOf(va));
            if (sys.access(va, type) &&
                !vm::includes(canonical, vm::requiredRight(type))) {
                ++over_grants;
                if (first.empty())
                    first = "seed " + std::to_string(seed) + " op " +
                            std::to_string(op) + ": granted " +
                            vm::toString(vm::requiredRight(type)) +
                            " on a " + vm::toString(canonical) + " page";
            }
            for (unsigned c = 0; c < kCpus; ++c) {
                for (const vm::Segment *s : segs) {
                    for (u64 p = 0; p < kPages; ++p) {
                        const vm::Vpn vpn = s->firstPage + p;
                        if (!vm::includes(
                                kernel.canonicalRights(nodes[c], vpn),
                                sys.models().core(c).cachedRights(nodes[c],
                                                                  vpn)))
                            ++hw_over;
                    }
                }
            }
        }
    }
    EXPECT_EQ(over_grants, 0u) << first;
    EXPECT_EQ(hw_over, 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, SmpTest,
                         ::testing::ValuesIn(allModels()), modelName);
INSTANTIATE_TEST_SUITE_P(Models, SmpPropertyTest,
                         ::testing::ValuesIn(allModels()), modelName);
