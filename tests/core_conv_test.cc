/**
 * @file
 * Behavioural tests for the conventional (multiple-address-space)
 * baseline: ASID replication, purge-on-switch, per-domain rights in
 * the TLB (Section 3.1).
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace sasos;
using namespace sasos::core;

class ConvSystemTest : public ::testing::Test
{
  protected:
    ConvSystemTest() : sys_(SystemConfig::conventionalSystem())
    {
        a_ = sys_.kernel().createDomain("a");
        b_ = sys_.kernel().createDomain("b");
    }

    vm::SegmentId
    makeShared(u64 pages, vm::Access a_rights, vm::Access b_rights)
    {
        const vm::SegmentId seg = sys_.kernel().createSegment("s", pages);
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

    ConventionalSystem &model() { return *sys_.conventionalSystem(); }

    core::System sys_;
    os::DomainId a_ = 0;
    os::DomainId b_ = 0;
};

TEST_F(ConvSystemTest, SharingReplicatesTlbEntries)
{
    // Section 3.1: "Sharing of a page by multiple domains causes
    // replication of TLB protection entries, even though each
    // replicated entry has the same translation information."
    const vm::SegmentId seg =
        makeShared(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    EXPECT_EQ(model().tlb().occupancy(), 1u);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    EXPECT_EQ(model().tlb().occupancy(), 2u); // replica per domain
}

TEST_F(ConvSystemTest, ReplicasCarryPerDomainRights)
{
    const vm::SegmentId seg =
        makeShared(1, vm::Access::ReadWrite, vm::Access::Read);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    EXPECT_TRUE(sys_.store(base));
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.load(base));
    EXPECT_FALSE(sys_.store(base));
}

TEST_F(ConvSystemTest, AsidSwitchKeepsTlbContents)
{
    const vm::SegmentId seg =
        makeShared(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(base, 2 * vm::kPageBytes);
    const std::size_t occupancy = model().tlb().occupancy();
    sys_.kernel().switchTo(b_);
    EXPECT_EQ(model().tlb().occupancy(), occupancy);
}

TEST_F(ConvSystemTest, PurgeOnSwitchDiscardsEverything)
{
    // Section 3.1: purging removes protection AND translation state,
    // "the translation information, which is the same for all
    // domains".
    SystemConfig config = SystemConfig::purgingConventionalSystem();
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    const vm::SegmentId seg = kernel.createSegment("s", 2);
    kernel.attach(a, seg, vm::Access::ReadWrite);
    kernel.attach(b, seg, vm::Access::ReadWrite);
    const vm::VAddr base = sys.state().segments.find(seg)->base();

    kernel.switchTo(a);
    sys.touchRange(base, 2 * vm::kPageBytes);
    EXPECT_GT(sys.conventionalSystem()->tlb().occupancy(), 0u);
    kernel.switchTo(b);
    EXPECT_EQ(sys.conventionalSystem()->tlb().occupancy(), 0u);
    EXPECT_EQ(sys.conventionalSystem()->switchPurges.value(), 1u);

    // b must re-fill entries for translations a already had.
    const u64 refills_before =
        sys.account().byCategory(CostCategory::Refill).count();
    sys.load(base);
    EXPECT_GT(sys.account().byCategory(CostCategory::Refill).count(),
              refills_before);
}

TEST_F(ConvSystemTest, PurgeModeStillEnforcesRights)
{
    SystemConfig config = SystemConfig::purgingConventionalSystem();
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    const vm::SegmentId seg = kernel.createSegment("s", 1);
    kernel.attach(a, seg, vm::Access::ReadWrite);
    kernel.attach(b, seg, vm::Access::Read);
    const vm::VAddr base = sys.state().segments.find(seg)->base();
    kernel.switchTo(a);
    EXPECT_TRUE(sys.store(base));
    kernel.switchTo(b);
    EXPECT_FALSE(sys.store(base));
    EXPECT_TRUE(sys.load(base));
    kernel.switchTo(a);
    EXPECT_TRUE(sys.store(base));
}

TEST_F(ConvSystemTest, PerDomainRightsChangeUpdatesOneReplica)
{
    const vm::SegmentId seg =
        makeShared(1, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    sys_.kernel().switchTo(b_);
    sys_.load(base);

    sys_.kernel().setPageRights(a_, vm::pageOf(base), vm::Access::Read);
    // b's replica is untouched.
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.store(base));
    sys_.kernel().switchTo(a_);
    EXPECT_FALSE(sys_.store(base));
}

TEST_F(ConvSystemTest, AllDomainRestrictPurgesAllReplicas)
{
    const vm::SegmentId seg =
        makeShared(1, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    const u64 purged_before = model().tlb().purgedEntries.value();
    sys_.kernel().restrictPage(vm::pageOf(base), vm::Access::None);
    EXPECT_EQ(model().tlb().purgedEntries.value(), purged_before + 2);
    EXPECT_FALSE(sys_.load(base));
    sys_.kernel().switchTo(a_);
    EXPECT_FALSE(sys_.load(base));
}

TEST_F(ConvSystemTest, DetachPurgesDomainEntriesInRange)
{
    const vm::SegmentId seg =
        makeShared(2, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.touchRange(base, 2 * vm::kPageBytes);
    sys_.kernel().switchTo(b_);
    sys_.touchRange(base, 2 * vm::kPageBytes);

    sys_.kernel().detach(a_, seg);
    EXPECT_EQ(model().tlb().occupancy(), 2u); // b's replicas remain
    sys_.kernel().switchTo(a_);
    EXPECT_FALSE(sys_.load(base));
    sys_.kernel().switchTo(b_);
    EXPECT_TRUE(sys_.load(base));
}

TEST_F(ConvSystemTest, DomainDestructionPurgesItsAsid)
{
    const vm::SegmentId seg =
        makeShared(1, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    sys_.kernel().switchTo(a_);
    sys_.load(base);
    sys_.kernel().destroyDomain(b_);
    EXPECT_EQ(model().tlb().occupancy(), 1u);
}

TEST_F(ConvSystemTest, UnmapPurgesAndFlushes)
{
    const vm::SegmentId seg =
        makeShared(1, vm::Access::ReadWrite, vm::Access::ReadWrite);
    const vm::VAddr base = baseOf(seg);
    sys_.kernel().switchTo(a_);
    sys_.store(base);
    sys_.kernel().switchTo(b_);
    sys_.load(base);
    sys_.kernel().unmapPage(vm::pageOf(base));
    EXPECT_EQ(model().tlb().occupancy(), 0u);
    EXPECT_EQ(model().cache().occupancy(), 0u);
}

TEST_F(ConvSystemTest, CachedRightsPeekTheTlb)
{
    // cachedRights reads the domain's ASID-tagged TLB replica: nothing
    // before the domain touches the page, canonical once it has, never
    // above canonical after a revoke.
    const vm::SegmentId seg =
        makeShared(2, vm::Access::ReadWrite, vm::Access::Read);
    const vm::Vpn vpn = sys_.state().segments.find(seg)->firstPage;
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::None);
    EXPECT_TRUE(sys_.store(baseOf(seg)));
    EXPECT_EQ(model().cachedRights(a_, vpn), vm::Access::ReadWrite);
    EXPECT_EQ(model().cachedRights(b_, vpn), vm::Access::None);
    sys_.kernel().setPageRights(a_, vpn, vm::Access::Read);
    EXPECT_TRUE(vm::includes(sys_.kernel().canonicalRights(a_, vpn),
                             model().cachedRights(a_, vpn)));
}

TEST(ConvPurgeSystemTest, CachedRightsOfIdleDomainAreNone)
{
    // With purge-on-switch the TLB is untagged: its entries belong to
    // the running domain alone, so an idle domain peeks None even
    // though the entry it would see carries another domain's rights.
    core::System sys(SystemConfig::purgingConventionalSystem());
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    const vm::SegmentId seg = kernel.createSegment("s", 1);
    kernel.attach(a, seg, vm::Access::Read);
    kernel.attach(b, seg, vm::Access::ReadWrite);
    const vm::Vpn vpn = sys.state().segments.find(seg)->firstPage;
    kernel.switchTo(b);
    EXPECT_TRUE(sys.store(vm::baseOf(vpn)));
    ConventionalSystem &model = *sys.conventionalSystem();
    EXPECT_EQ(model.cachedRights(b, vpn), vm::Access::ReadWrite);
    EXPECT_EQ(model.cachedRights(a, vpn), vm::Access::None);
    kernel.switchTo(a);
    EXPECT_EQ(model.cachedRights(a, vpn), vm::Access::None);
    EXPECT_EQ(model.cachedRights(b, vpn), vm::Access::None);
    EXPECT_TRUE(sys.load(vm::baseOf(vpn)));
    EXPECT_EQ(model.cachedRights(a, vpn), vm::Access::Read);
}
