/**
 * @file
 * Behavioural tests for the PLB system: the specific claims the paper
 * makes about the domain-page model (Sections 3.2.1, 4.1, 4.3).
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace sasos;
using namespace sasos::core;

class PlbSystemTest : public ::testing::Test
{
  protected:
    PlbSystemTest() : sys_(SystemConfig::plbSystem())
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

    PlbSystem &model() { return *sys_.plbSystem(); }

    core::System sys_;
    os::DomainId a_ = 0;
    os::DomainId b_ = 0;
};

TEST_F(PlbSystemTest, DomainSwitchIsOneRegisterWrite)
{
    // Section 4.1.4: "A protection domain switch on a PLB-based
    // system requires changing only a single register."
    const u64 before =
        sys_.account().byCategory(CostCategory::DomainSwitch).count();
    sys_.kernel().switchTo(b_);
    const u64 cost =
        sys_.account().byCategory(CostCategory::DomainSwitch).count() -
        before;
    EXPECT_EQ(cost, sys_.costs().domainSwitchBase.count() +
                        sys_.costs().registerWrite.count());
}

TEST_F(PlbSystemTest, SwitchPurgesNothing)
{
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::ReadWrite);
    sys_.touchRange(baseOf(seg), 4 * vm::kPageBytes);
    const std::size_t plb_before = model().plb().occupancy();
    const std::size_t tlb_before = model().translationTlb().occupancy();
    sys_.kernel().switchTo(b_);
    sys_.kernel().switchTo(a_);
    EXPECT_EQ(model().plb().occupancy(), plb_before);
    EXPECT_EQ(model().translationTlb().occupancy(), tlb_before);
}

TEST_F(PlbSystemTest, RightsFaultedInLazilyOnAttach)
{
    // Table 1 Attach: no hardware structure is touched eagerly.
    const std::size_t before = model().plb().occupancy();
    makeSegment(8, vm::Access::ReadWrite, vm::Access::None);
    EXPECT_EQ(model().plb().occupancy(), before);
}

TEST_F(PlbSystemTest, SharedPageUsesOneEntryPerDomain)
{
    SystemConfig config = SystemConfig::plbSystem();
    config.superPagePlb = false;
    config.plb.sizeShifts = {vm::kPageShift};
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    const vm::SegmentId seg = kernel.createSegment("s", 1);
    kernel.attach(a, seg, vm::Access::ReadWrite);
    kernel.attach(b, seg, vm::Access::Read);
    const vm::VAddr base = sys.state().segments.find(seg)->base();

    kernel.switchTo(a);
    sys.load(base);
    kernel.switchTo(b);
    sys.load(base);
    EXPECT_EQ(sys.plbSystem()->plb().occupancy(), 2u);
}

TEST_F(PlbSystemTest, SuperPageEntryCoversAlignedSegment)
{
    // Section 4.3: "a single PLB entry could map the entire region."
    const vm::SegmentId seg =
        makeSegment(16, vm::Access::ReadWrite, vm::Access::None);
    sys_.touchRange(baseOf(seg), 16 * vm::kPageBytes);
    EXPECT_EQ(model().superPageFills.value(), 1u);
    EXPECT_EQ(model().plb().occupancy(), 1u);
    EXPECT_EQ(model().plb().misses.value(), 1u);
}

TEST_F(PlbSystemTest, UnalignedSegmentUsesPageEntries)
{
    const vm::SegmentId seg = makeSegment(
        5, vm::Access::ReadWrite, vm::Access::None, /*pow2=*/false);
    sys_.touchRange(baseOf(seg), 5 * vm::kPageBytes);
    EXPECT_EQ(model().superPageFills.value(), 0u);
    EXPECT_EQ(model().pageFills.value(), 5u);
}

TEST_F(PlbSystemTest, PageOverrideShattersSuperPage)
{
    const vm::SegmentId seg =
        makeSegment(8, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.load(base); // super-page fill
    EXPECT_EQ(model().superPageFills.value(), 1u);

    sys_.kernel().setPageRights(a_, vm::pageOf(base), vm::Access::Read);
    // The covering entry is gone; the page-grain entry rules.
    auto match = model().plb().peek(a_, base);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->sizeShift, vm::kPageShift);
    EXPECT_EQ(match->rights, vm::Access::Read);
    EXPECT_FALSE(sys_.store(base));
    EXPECT_TRUE(sys_.store(base + vm::kPageBytes));
}

TEST_F(PlbSystemTest, RightsChangeUpdatesSingleEntry)
{
    // Section 4.1.2: "changing a domain's access rights to a page
    // simply requires updating a PLB entry."
    SystemConfig config = SystemConfig::plbSystem();
    config.superPagePlb = false;
    config.plb.sizeShifts = {vm::kPageShift};
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const vm::SegmentId seg = kernel.createSegment("s", 2);
    kernel.attach(a, seg, vm::Access::ReadWrite);
    const vm::VAddr base = sys.state().segments.find(seg)->base();
    sys.load(base);

    const u64 updates_before = sys.plbSystem()->plb().updates.value();
    kernel.setPageRights(a, vm::pageOf(base), vm::Access::Read);
    EXPECT_EQ(sys.plbSystem()->plb().updates.value(), updates_before + 1);
    EXPECT_FALSE(sys.store(base));
}

TEST_F(PlbSystemTest, DetachScansThePlb)
{
    // Table 1 Detach: "inspect each entry and eliminate those for the
    // segment-domain pair affected."
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::None);
    sys_.touchRange(baseOf(seg), 4 * vm::kPageBytes);
    const u64 scans_before = model().plb().purgeScans.value();
    sys_.kernel().detach(a_, seg);
    EXPECT_GT(model().plb().purgeScans.value(), scans_before);
    EXPECT_FALSE(sys_.load(baseOf(seg)));
}

TEST_F(PlbSystemTest, StalePlbEntrySurvivesUnmapSafely)
{
    // Section 4.1.3: "no maintenance of the PLB is required" on
    // unmap; the stale entry may allow the access but the missing
    // translation faults it.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.store(base);
    ASSERT_TRUE(model().plb().peek(a_, base).has_value());

    sys_.kernel().unmapPage(vm::pageOf(base));
    // The PLB still holds the entry (no purge)...
    EXPECT_TRUE(model().plb().peek(a_, base).has_value());
    const u64 trans_faults_before =
        sys_.kernel().translationFaults.value();
    // ...and the next access takes a translation fault, not a
    // protection fault.
    EXPECT_TRUE(sys_.load(base));
    EXPECT_EQ(sys_.kernel().translationFaults.value(),
              trans_faults_before + 1);
}

TEST_F(PlbSystemTest, UnmapFlushesCacheLines)
{
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.store(base);
    const u64 flushed_before = model().cache().flushedLines.value();
    sys_.kernel().unmapPage(vm::pageOf(base));
    EXPECT_GT(model().cache().flushedLines.value(), flushed_before);
    EXPECT_GT(sys_.account().byCategory(CostCategory::Flush).count(), 0u);
}

TEST_F(PlbSystemTest, VivtCacheHitsAcrossDomains)
{
    // Section 2.2: shared data lives once in the VIVT cache; a second
    // domain hits on the first domain's lines without flushes.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const u64 misses_before = model().cache().misses.value();
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    EXPECT_EQ(model().cache().misses.value(), misses_before);
}

TEST_F(PlbSystemTest, TranslationOnlyOnMisses)
{
    // Section 3.2.1: address translation only on cache misses and
    // writebacks -- repeated hits never touch the TLB.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.load(base); // miss: translation
    const u64 tlb_lookups = model().translationTlb().lookups.value();
    for (int i = 0; i < 10; ++i)
        sys_.load(base);
    EXPECT_EQ(model().translationTlb().lookups.value(), tlb_lookups);
}

TEST_F(PlbSystemTest, WritebackTranslatesVictim)
{
    // A dirty VIVT victim needs its translation for writeback.
    SystemConfig config = SystemConfig::plbSystem();
    config.cache.sizeBytes = 4096; // tiny direct-mapped cache
    config.cache.ways = 1;
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.createDomain("d");
    const vm::SegmentId seg = kernel.createSegment("s", 4);
    kernel.attach(d, seg, vm::Access::ReadWrite);
    const vm::VAddr base = sys.state().segments.find(seg)->base();

    sys.store(base);                       // dirty line at index 0
    sys.store(base + 4096);                // evicts it (same index)
    EXPECT_GE(sys.plbSystem()->writebackTranslations.value(), 1u);
}

TEST_F(PlbSystemTest, GlobalRestrictScansWholePlb)
{
    // Changing a page's rights for all domains costs a PLB scan.
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const u64 scans_before = model().plb().purgeScans.value();
    sys_.kernel().restrictPage(vm::pageOf(base), vm::Access::None);
    EXPECT_GT(model().plb().purgeScans.value(), scans_before);
    EXPECT_FALSE(sys_.load(base));
}

TEST_F(PlbSystemTest, CachedRightsPeekThePlb)
{
    // cachedRights reads the PLB: nothing before a domain touches the
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

TEST_F(PlbSystemTest, CacheProbeIndependentOfProtectionOutcome)
{
    // Figure 1: "the cache and PLB searches can occur completely in
    // parallel, because the cache lookup is not dependent on
    // information provided by the PLB." A denied reference still
    // performed its cache probe; an allowed one performs exactly the
    // same probe.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.store(base); // warm line

    const u64 accesses_before = model().cache().accesses.value();
    sys_.kernel().switchTo(b_);
    EXPECT_FALSE(sys_.store(base)); // denied by the PLB...
    // ...but the parallel cache probe happened anyway.
    EXPECT_EQ(model().cache().accesses.value(), accesses_before + 1);

    const u64 accesses_mid = model().cache().accesses.value();
    EXPECT_TRUE(sys_.load(base)); // allowed: same single probe
    EXPECT_EQ(model().cache().accesses.value(), accesses_mid + 1);
}

TEST_F(PlbSystemTest, DomainDestructionPurgesItsEntries)
{
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    ASSERT_TRUE(model().plb().peek(b_, base).has_value());
    sys_.kernel().destroyDomain(b_);
    EXPECT_FALSE(model().plb().peek(b_, base).has_value());
    EXPECT_TRUE(model().plb().peek(a_, base).has_value());
}
