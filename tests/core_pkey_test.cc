/**
 * @file
 * Behavioural tests for the protection-key system: the register-file
 * variant of the paper's protection/translation decoupling (Section 4
 * pushed to its MPK-style extreme). Mirrors core_plb_test.cc: the
 * hit/miss/fault taxonomy, key exhaustion and recycling, and the
 * register-flip vs scan-and-flush revocation cycle accounting.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace sasos;
using namespace sasos::core;

class PkeySystemTest : public ::testing::Test
{
  protected:
    PkeySystemTest() : sys_(SystemConfig::pkeySystem())
    {
        a_ = sys_.kernel().createDomain("a");
        b_ = sys_.kernel().createDomain("b");
    }

    vm::SegmentId
    makeSegment(u64 pages, vm::Access a_rights, vm::Access b_rights,
                bool pow2 = true)
    {
        const vm::SegmentId seg =
            sys_.kernel().createSegment("seg", pages, pow2);
        if (a_rights != vm::Access::None)
            sys_.kernel().attach(a_, seg, a_rights);
        if (b_rights != vm::Access::None)
            sys_.kernel().attach(b_, seg, b_rights);
        return seg;
    }

    vm::VAddr
    baseOf(vm::SegmentId seg)
    {
        return sys_.state().segments.find(seg)->base();
    }

    PkeySystem &model() { return *sys_.pkeySystem(); }

    core::System sys_;
    os::DomainId a_ = 0;
    os::DomainId b_ = 0;
};

TEST_F(PkeySystemTest, DomainSwitchIsOneRegisterWrite)
{
    // The register file is domain-tagged: a protection domain switch
    // costs one register write, exactly like the PLB system.
    const u64 before =
        sys_.account().byCategory(CostCategory::DomainSwitch).count();
    sys_.kernel().switchTo(b_);
    const u64 cost =
        sys_.account().byCategory(CostCategory::DomainSwitch).count() -
        before;
    EXPECT_EQ(cost, sys_.costs().domainSwitchBase.count() +
                        sys_.costs().registerWrite.count());
}

TEST_F(PkeySystemTest, SwitchPurgesNothing)
{
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::ReadWrite);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(baseOf(seg), 4 * vm::kPageBytes);
    const std::size_t tlb_before = model().tlb().occupancy();
    const std::size_t kpr_before = model().keyCache().occupancy();
    sys_.kernel().switchTo(b_);
    sys_.kernel().switchTo(a_);
    EXPECT_EQ(model().tlb().occupancy(), tlb_before);
    EXPECT_EQ(model().keyCache().occupancy(), kpr_before);
}

TEST_F(PkeySystemTest, AttachBindsNoKeyEagerly)
{
    // Table 1 Attach: nothing is touched eagerly; the segment key is
    // bound at the first refill that needs it.
    makeSegment(8, vm::Access::ReadWrite, vm::Access::None);
    EXPECT_EQ(model().boundKeys(), 0u);
    EXPECT_EQ(model().keyCache().occupancy(), 0u);
    EXPECT_EQ(model().keyAssignments.value(), 0u);
}

TEST_F(PkeySystemTest, OneKeyPerSegmentBoundAtRefill)
{
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(base, 4 * vm::kPageBytes);
    // Four translations, one key, one register.
    EXPECT_EQ(model().boundKeys(), 1u);
    EXPECT_EQ(model().keyAssignments.value(), 1u);
    EXPECT_EQ(model().tlb().occupancy(), 4u);
    EXPECT_EQ(model().keyCache().occupancy(), 1u);
    const hw::KeyId key = model().keyOf(vm::pageOf(base));
    ASSERT_NE(key, 0u);
    for (u64 i = 1; i < 4; ++i)
        EXPECT_EQ(model().keyOf(vm::pageOf(base + i * vm::kPageBytes)),
                  key);
}

TEST_F(PkeySystemTest, RepeatedHitsNeverRefill)
{
    // Taxonomy: the first reference misses TLB and register file and
    // pays the refills; repeated hits charge nothing to Refill.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base); // tlbRefill + kprRefill
    const u64 refill =
        sys_.account().byCategory(CostCategory::Refill).count();
    const u64 tlb_misses = model().tlb().misses.value();
    const u64 kpr_misses = model().keyCache().misses.value();
    for (int i = 0; i < 10; ++i)
        sys_.load(base);
    EXPECT_EQ(sys_.account().byCategory(CostCategory::Refill).count(),
              refill);
    EXPECT_EQ(model().tlb().misses.value(), tlb_misses);
    EXPECT_EQ(model().keyCache().misses.value(), kpr_misses);
}

TEST_F(PkeySystemTest, SharedSegmentOneRegisterPerDomain)
{
    // The TLB is untagged (translations are global in the single
    // address space): two domains share one translation entry and
    // differ only in their key registers.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    EXPECT_EQ(model().tlb().occupancy(), 1u);
    EXPECT_EQ(model().keyCache().occupancy(), 2u);
    EXPECT_FALSE(sys_.store(base)); // b holds Read only
    sys_.kernel().switchTo(a_);
    EXPECT_TRUE(sys_.store(base));
}

TEST_F(PkeySystemTest, SegmentRevocationFlipsOneRegister)
{
    // The headline path: revoking a domain's write rights over a
    // whole warm segment flips the one (domain, segment-key) register
    // -- one table update plus one register write, no TLB purge, and
    // the flipped register still hits afterwards.
    const vm::SegmentId seg =
        makeSegment(8, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(base, 8 * vm::kPageBytes);
    const std::size_t tlb_before = model().tlb().occupancy();
    const u64 flips_before = model().keyCache().flips.value();
    const u64 kernel_before =
        sys_.account().byCategory(CostCategory::KernelWork).count();

    sys_.kernel().setSegmentRights(a_, seg, vm::Access::Read);

    EXPECT_EQ(
        sys_.account().byCategory(CostCategory::KernelWork).count() -
            kernel_before,
        sys_.costs().tableUpdate.count() +
            sys_.costs().registerWrite.count());
    EXPECT_EQ(model().keyCache().flips.value(), flips_before + 1);
    EXPECT_EQ(model().tlb().occupancy(), tlb_before);

    // The flipped register serves the next reference without a refill.
    const u64 kpr_misses = model().keyCache().misses.value();
    EXPECT_TRUE(sys_.load(base));
    EXPECT_EQ(model().keyCache().misses.value(), kpr_misses);
    EXPECT_FALSE(sys_.store(base));
}

TEST_F(PkeySystemTest, RevocationCheaperThanConventionalFlush)
{
    // Flip-vs-flush accounting: on a conventional TLB the same
    // revocation scans the whole TLB and invalidates every warm entry
    // of the segment; the key system pays one register write either
    // way.
    const u64 pages = 32;
    u64 kernel_cost[2] = {0, 0};
    const ModelKind kinds[2] = {ModelKind::Pkey,
                                ModelKind::Conventional};
    for (int i = 0; i < 2; ++i) {
        core::System sys(SystemConfig::forModel(kinds[i]));
        auto &kernel = sys.kernel();
        const os::DomainId d = kernel.createDomain("d");
        const vm::SegmentId seg = kernel.createSegment("s", pages);
        kernel.attach(d, seg, vm::Access::ReadWrite);
        kernel.switchTo(d);
        sys.touchRange(sys.state().segments.find(seg)->base(),
                       pages * vm::kPageBytes);
        const u64 before =
            sys.account().byCategory(CostCategory::KernelWork).count();
        kernel.setSegmentRights(d, seg, vm::Access::Read);
        kernel_cost[i] =
            sys.account().byCategory(CostCategory::KernelWork).count() -
            before;
    }
    EXPECT_LT(kernel_cost[0], kernel_cost[1]);
}

TEST_F(PkeySystemTest, PageOverridePromotesToOwnKey)
{
    // A page that acquires per-page state is promoted to its own key
    // so one register keeps describing one rights value exactly.
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(base, 4 * vm::kPageBytes);
    const hw::KeyId seg_key = model().keyOf(vm::pageOf(base));

    sys_.kernel().setPageRights(a_, vm::pageOf(base), vm::Access::Read);
    EXPECT_EQ(model().pageKeyPromotions.value(), 1u);
    const hw::KeyId page_key = model().keyOf(vm::pageOf(base));
    EXPECT_NE(page_key, seg_key);
    EXPECT_NE(page_key, 0u);

    EXPECT_FALSE(sys_.store(base));
    EXPECT_TRUE(sys_.store(base + vm::kPageBytes));
    // The other domain has no override; its grant still rules the
    // promoted page.
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.store(base));
}

TEST_F(PkeySystemTest, GlobalRestrictReleasesKeyOnUnrestrict)
{
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const hw::KeyId seg_key = model().keyOf(vm::pageOf(base));
    const u64 bound = model().boundKeys();

    sys_.kernel().restrictPage(vm::pageOf(base), vm::Access::None);
    EXPECT_EQ(model().boundKeys(), bound + 1);
    EXPECT_FALSE(sys_.load(base));
    sys_.kernel().switchTo(b_);
    EXPECT_FALSE(sys_.load(base));

    sys_.kernel().unrestrictPage(vm::pageOf(base));
    // No per-page state remains: the page key is returned and the
    // segment key governs again.
    EXPECT_EQ(model().boundKeys(), bound);
    EXPECT_EQ(model().keyOf(vm::pageOf(base)), seg_key);
    EXPECT_TRUE(sys_.load(base));
}

TEST_F(PkeySystemTest, KeyExhaustionRecyclesRoundRobin)
{
    // A key space smaller than the working set forces round-robin
    // recycling; every reference still resolves correctly.
    SystemConfig config = SystemConfig::pkeySystem();
    config.pkeys = 2;
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.createDomain("d");
    kernel.switchTo(d);
    vm::VAddr bases[3];
    for (int i = 0; i < 3; ++i) {
        const vm::SegmentId seg = kernel.createSegment("s", 1);
        kernel.attach(d, seg, vm::Access::ReadWrite);
        bases[i] = sys.state().segments.find(seg)->base();
        EXPECT_TRUE(sys.load(bases[i]));
    }
    PkeySystem &model = *sys.pkeySystem();
    EXPECT_GE(model.keyRecycles.value(), 1u);
    EXPECT_LE(model.boundKeys(), config.pkeys);
    // The evicted segment faults its key back in and still resolves.
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(sys.load(bases[i]));
    EXPECT_LE(model.boundKeys(), config.pkeys);
}

TEST_F(PkeySystemTest, RecycledKeyCarriesNoStaleRights)
{
    // Recycling must never resurrect rights: a revoked segment stays
    // revoked after its key id has been retired and rebound elsewhere.
    SystemConfig config = SystemConfig::pkeySystem();
    config.pkeys = 2;
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.createDomain("d");
    kernel.switchTo(d);
    const vm::SegmentId first = kernel.createSegment("first", 1);
    kernel.attach(d, first, vm::Access::ReadWrite);
    const vm::VAddr first_base = sys.state().segments.find(first)->base();
    EXPECT_TRUE(sys.store(first_base));

    kernel.setSegmentRights(d, first, vm::Access::None);
    // Churn enough segments to recycle the revoked segment's key.
    for (int i = 0; i < 3; ++i) {
        const vm::SegmentId seg = kernel.createSegment("churn", 1);
        kernel.attach(d, seg, vm::Access::ReadWrite);
        EXPECT_TRUE(sys.load(sys.state().segments.find(seg)->base()));
    }
    EXPECT_GE(sys.pkeySystem()->keyRecycles.value(), 1u);
    EXPECT_FALSE(sys.load(first_base));
    kernel.setSegmentRights(d, first, vm::Access::Read);
    EXPECT_TRUE(sys.load(first_base));
    EXPECT_FALSE(sys.store(first_base));
}

TEST_F(PkeySystemTest, DetachDropsRegisterNotTranslation)
{
    // Table 1 Detach: the (domain, key) register goes; the untagged
    // translation stays for everyone else.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const hw::KeyId key = model().keyOf(vm::pageOf(base));
    ASSERT_TRUE(model().keyCache().peek(a_, key).has_value());

    sys_.kernel().detach(a_, seg);
    EXPECT_FALSE(model().keyCache().peek(a_, key).has_value());
    EXPECT_NE(model().tlb().peek(vm::pageOf(base)), nullptr);
    EXPECT_FALSE(sys_.load(base));
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.load(base));
}

TEST_F(PkeySystemTest, UnmapPurgesTranslationAndFaults)
{
    // The TLB holds the translation here (unlike the PLB's rights
    // entries), so unmap purges it and the next access takes a
    // translation fault, not a protection fault.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.store(base);
    ASSERT_NE(model().tlb().peek(vm::pageOf(base)), nullptr);

    sys_.kernel().unmapPage(vm::pageOf(base));
    EXPECT_EQ(model().tlb().peek(vm::pageOf(base)), nullptr);
    const u64 trans_faults_before =
        sys_.kernel().translationFaults.value();
    EXPECT_TRUE(sys_.load(base));
    EXPECT_EQ(sys_.kernel().translationFaults.value(),
              trans_faults_before + 1);
}

TEST_F(PkeySystemTest, DomainDestructionPurgesItsRegisters)
{
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const hw::KeyId key = model().keyOf(vm::pageOf(base));
    ASSERT_TRUE(model().keyCache().peek(b_, key).has_value());
    sys_.kernel().destroyDomain(b_);
    EXPECT_FALSE(model().keyCache().peek(b_, key).has_value());
    EXPECT_TRUE(model().keyCache().peek(a_, key).has_value());
}

TEST_F(PkeySystemTest, CachedRightsPeekKeyTagAndRegister)
{
    // cachedRights reads the page's TLB key tag and the domain's
    // register for that key: nothing before the domain touches the
    // page, canonical once it has, never above canonical after a
    // revoke.
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::Read);
    const vm::Vpn vpn = sys_.state().segments.find(seg)->firstPage;
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::None);
    EXPECT_TRUE(sys_.store(baseOf(seg)));
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::ReadWrite);
    EXPECT_EQ(model().cachedRights(b_, vpn), vm::Access::None);
    sys_.kernel().setPageRights(a_, vpn, vm::Access::Read);
    EXPECT_TRUE(vm::includes(sys_.kernel().canonicalRights(a_, vpn),
                             model().cachedRights(a_, vpn)));
}

TEST_F(PkeySystemTest, InjectionPerturbsStructuresOnly)
{
    // Fault taxonomy under injection: perturbations evict registers
    // and translations and flash the register file, but rights are
    // rederived from canonical state -- decisions keep matching it.
    SystemConfig config = SystemConfig::pkeySystem();
    config.faults.enabled = true;
    config.faults.rate = 0.2;
    config.faults.seed = 7;
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.createDomain("d");
    const vm::SegmentId seg = kernel.createSegment("heap", 64);
    kernel.attach(d, seg, vm::Access::ReadWrite);
    kernel.switchTo(d);
    const vm::VAddr base = sys.state().segments.find(seg)->base();
    for (int i = 0; i < 2000; ++i)
        sys.load(base + (static_cast<u64>(i) * 2654435761u) %
                            (64 * vm::kPageBytes));
    PkeySystem &model = *sys.pkeySystem();
    EXPECT_GT(model.keyCache().injectedEvictions.value() +
                  model.keyCorruptions.value(),
              0u);
    for (u64 p = 0; p < 64; ++p) {
        const vm::Vpn vpn = vm::pageOf(base + p * vm::kPageBytes);
        EXPECT_TRUE(vm::includes(kernel.canonicalRights(d, vpn),
                                 model.cachedRights(d, vpn)));
    }
    EXPECT_TRUE(sys.store(base));
}
