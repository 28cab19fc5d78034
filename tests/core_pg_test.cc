/**
 * @file
 * Behavioural tests for the page-group system: the PA-RISC-style
 * claims of Sections 3.2.2, 4.1 and 4.2.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace sasos;
using namespace sasos::core;

class PgSystemTest : public ::testing::Test
{
  protected:
    PgSystemTest() : sys_(SystemConfig::pageGroupSystem())
    {
        a_ = sys_.kernel().createDomain("a");
        b_ = sys_.kernel().createDomain("b");
    }

    vm::SegmentId
    makeSegment(u64 pages, vm::Access a_rights, vm::Access b_rights)
    {
        const vm::SegmentId seg = sys_.kernel().createSegment("seg", pages);
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

    PageGroupSystem &model() { return *sys_.pageGroupSystem(); }

    core::System sys_;
    os::DomainId a_ = 0;
    os::DomainId b_ = 0;
};

TEST_F(PgSystemTest, SharedPageUsesOneTlbEntry)
{
    // The model's headline advantage over the PLB: no replication.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    EXPECT_EQ(model().tlb().occupancy(), 1u);
}

TEST_F(PgSystemTest, ReadOnlyDomainDeniedWriteViaDBit)
{
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.load(base));
    EXPECT_FALSE(sys_.store(base));
    sys_.kernel().switchTo(a_);
    EXPECT_TRUE(sys_.store(base));
}

TEST_F(PgSystemTest, DomainSwitchPurgesPageGroupCache)
{
    // Section 4.1.4: switching purges the page-group cache; entries
    // fault back in lazily.
    const vm::SegmentId seg =
        makeSegment(1, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    EXPECT_GT(model().pageGroupCache().occupancy(), 0u);
    sys_.kernel().switchTo(b_);
    EXPECT_EQ(model().pageGroupCache().occupancy(), 0u);
    const u64 refills_before = model().pgCacheRefills.value();
    sys_.load(base);
    EXPECT_EQ(model().pgCacheRefills.value(), refills_before + 1);
}

TEST_F(PgSystemTest, EagerReloadFillsCacheOnSwitch)
{
    SystemConfig config = SystemConfig::pageGroupSystem();
    config.eagerPgReload = true;
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    const vm::SegmentId seg = kernel.createSegment("s", 1);
    kernel.attach(a, seg, vm::Access::ReadWrite);
    kernel.attach(b, seg, vm::Access::ReadWrite);
    const vm::VAddr base = sys.state().segments.find(seg)->base();
    kernel.switchTo(a);
    sys.load(base);

    kernel.switchTo(b);
    EXPECT_GT(sys.pageGroupSystem()->eagerReloads.value(), 0u);
    // No page-group refill fault on first access.
    const u64 refills = sys.pageGroupSystem()->pgCacheRefills.value();
    sys.load(base);
    EXPECT_EQ(sys.pageGroupSystem()->pgCacheRefills.value(), refills);
}

TEST_F(PgSystemTest, AttachDoesNotTouchPerPageState)
{
    // Table 1 Attach: O(1), just a group id for the domain.
    const vm::SegmentId seg =
        makeSegment(64, vm::Access::ReadWrite, vm::Access::None);
    sys_.touchRange(baseOf(seg), 64 * vm::kPageBytes);
    const u64 tlb_purged = model().tlb().purgedEntries.value();
    const u64 kernel_work_before =
        sys_.account().byCategory(CostCategory::KernelWork).count();
    sys_.kernel().attach(b_, seg, vm::Access::ReadWrite);
    // No TLB purge, only constant work.
    EXPECT_EQ(model().tlb().purgedEntries.value(), tlb_purged);
    const u64 work =
        sys_.account().byCategory(CostCategory::KernelWork).count() -
        kernel_work_before;
    EXPECT_LT(work, 64u); // independent of the 64 pages... but see
                          // checkUnionChanged below for union growth
}

TEST_F(PgSystemTest, DetachRemovesGroupFromCurrentDomainCache)
{
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    EXPECT_GT(model().pageGroupCache().occupancy(), 0u);
    sys_.kernel().detach(a_, seg);
    EXPECT_EQ(model().pageGroupCache().occupancy(), 0u);
    EXPECT_FALSE(sys_.load(base));
}

TEST_F(PgSystemTest, PerDomainRightsChangeSplitsGroup)
{
    // Section 4.1.2: granting one domain different rights to a page
    // in a shared segment requires another page-group.
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(base, 4 * vm::kPageBytes);

    const u64 splits_before = model().manager().splits.value();
    sys_.kernel().setPageRights(a_, vm::pageOf(base), vm::Access::Read);
    EXPECT_EQ(model().manager().splits.value(), splits_before + 1);

    // Enforcement: a can no longer write that page but can write the
    // segment's other pages; b is unaffected.
    EXPECT_FALSE(sys_.store(base));
    EXPECT_TRUE(sys_.store(base + vm::kPageBytes));
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.store(base));
}

TEST_F(PgSystemTest, UniformAllDomainChangeUsesOneTlbUpdate)
{
    // Section 4.1.2: "if the rights are being changed for all domains
    // ... the change is easily made in a single TLB entry."
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const u64 scans_before = model().tlb().purgedEntries.value();
    sys_.kernel().restrictPage(vm::pageOf(base), vm::Access::None);
    // One entry rewritten; nothing scanned or purged.
    EXPECT_EQ(model().tlb().purgedEntries.value(), scans_before);
    EXPECT_FALSE(sys_.load(base));
}

TEST_F(PgSystemTest, InexpressibleVectorAlternates)
{
    // {a: R, b: W}: the page hops between a-favoring and b-favoring
    // groups as each domain faults -- the paper's alternation
    // pathology for shared locks.
    const vm::SegmentId seg = sys_.kernel().createSegment("s", 1);
    sys_.kernel().attach(a_, seg, vm::Access::Read);
    sys_.kernel().attach(b_, seg, vm::Access::Write);
    const vm::VAddr base = baseOf(seg);

    sys_.kernel().switchTo(a_);
    EXPECT_TRUE(sys_.load(base));
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.store(base));
    sys_.kernel().switchTo(a_);
    EXPECT_TRUE(sys_.load(base));
    EXPECT_GE(model().manager().alternations.value(), 2u);
    EXPECT_GE(sys_.kernel().staleFaults.value(), 2u);
}

TEST_F(PgSystemTest, UnionGrowthPurgesStaleTlbRights)
{
    // When a new attach raises the group's Rights union, cached TLB
    // entries are purged so the new union can be observed -- and
    // write access genuinely works afterward.
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::Read, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    const u64 purges_before = model().unionPurges.value();
    sys_.kernel().attach(b_, seg, vm::Access::ReadWrite);
    EXPECT_GT(model().unionPurges.value(), purges_before);
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.store(base));
    // And a still cannot write.
    sys_.kernel().switchTo(a_);
    EXPECT_FALSE(sys_.store(base));
}

TEST_F(PgSystemTest, SegmentRightsDropEnforced)
{
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.store(base);
    sys_.kernel().setSegmentRights(a_, seg, vm::Access::Read);
    EXPECT_FALSE(sys_.store(base));
    EXPECT_TRUE(sys_.load(base));
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.store(base));
}

TEST_F(PgSystemTest, PagerExclusionMovesPageToPrivateGroup)
{
    // Table 1 paging rows: pages move to the paging server's group.
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::None);
    const vm::VAddr base = baseOf(seg);
    const os::DomainId pager = sys_.kernel().createDomain("pager");
    sys_.kernel().attach(pager, seg, vm::Access::ReadWrite);
    sys_.kernel().switchTo(a_);
    sys_.store(base);

    const u64 moves_before = model().manager().pageMoves.value();
    sys_.kernel().restrictPage(vm::pageOf(base), vm::Access::None, pager);
    EXPECT_GT(model().manager().pageMoves.value(), moves_before);
    EXPECT_FALSE(sys_.load(base));
    sys_.kernel().switchTo(pager);
    EXPECT_TRUE(sys_.store(base));
}

TEST_F(PgSystemTest, FourPidRegisterVariantThrashesWithManySegments)
{
    // The original PA-RISC has four PID registers; a domain touching
    // more than four segments misses on every rotation.
    SystemConfig config = SystemConfig::pidRegisterSystem();
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.createDomain("d");
    std::vector<vm::VAddr> bases;
    for (int s = 0; s < 8; ++s) {
        const vm::SegmentId seg =
            kernel.createSegment("s" + std::to_string(s), 1);
        kernel.attach(d, seg, vm::Access::ReadWrite);
        bases.push_back(sys.state().segments.find(seg)->base());
    }
    // Warm everything once.
    for (const vm::VAddr base : bases)
        sys.load(base);
    const u64 refills_before =
        sys.pageGroupSystem()->pgCacheRefills.value();
    for (int round = 0; round < 4; ++round) {
        for (const vm::VAddr base : bases)
            sys.load(base);
    }
    // 8 live groups in 4 registers: refills keep coming.
    EXPECT_GT(sys.pageGroupSystem()->pgCacheRefills.value(),
              refills_before + 8);
}

TEST_F(PgSystemTest, EffectiveRightsNeverExceedCanonical)
{
    const vm::SegmentId seg =
        makeSegment(4, vm::Access::ReadWrite, vm::Access::Read);
    const vm::Vpn first = sys_.state().segments.find(seg)->firstPage;
    sys_.kernel().setPageRights(a_, first, vm::Access::Read);
    sys_.kernel().setPageRights(b_, first + 1, vm::Access::None);
    for (u64 p = 0; p < 4; ++p) {
        for (os::DomainId d : {a_, b_}) {
            const vm::Access hw = model().cachedRights(d, first + p);
            const vm::Access canonical =
                sys_.kernel().canonicalRights(d, first + p);
            EXPECT_TRUE(vm::includes(canonical, hw))
                << "domain " << d << " page " << p;
        }
    }
}

TEST_F(PgSystemTest, CachedRightsPeekTlbAndPidCache)
{
    // cachedRights reads the TLB entry's Rights field and the running
    // domain's PID-cache write-disable bit: nothing for an idle domain
    // or a cold structure.
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::Read);
    const vm::Vpn vpn = sys_.state().segments.find(seg)->firstPage;
    sys_.kernel().switchTo(b_);
    EXPECT_EQ(model().cachedRights(b_, vpn), vm::Access::None);
    EXPECT_TRUE(sys_.load(baseOf(seg)));
    EXPECT_EQ(model().cachedRights(b_, vpn), vm::Access::Read);
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::None);
    EXPECT_EQ(model().cachedRights(b_, vpn + 1), vm::Access::None);
    // The switch purges the PID cache: the TLB entry alone grants
    // nothing until a reference refills the group.
    sys_.kernel().switchTo(a_);
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::None);
    EXPECT_TRUE(sys_.store(baseOf(seg)));
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::ReadWrite);
    EXPECT_EQ(model().cachedRights(b_, vpn), vm::Access::None);
}

TEST_F(PgSystemTest, SegmentDestructionReleasesGroups)
{
    const vm::SegmentId seg =
        makeSegment(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    sys_.kernel().setPageRights(a_, vm::pageOf(base), vm::Access::Read);
    EXPECT_GT(model().manager().liveGroups(), 0u);
    sys_.kernel().destroySegment(seg);
    EXPECT_EQ(model().manager().liveGroups(), 0u);
}
