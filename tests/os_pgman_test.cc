/**
 * @file
 * Tests for the page-group manager: default groups, vector-keyed
 * splits, write-disable derivation, inexpressible-vector alternation
 * and group recycling -- the OS policy behind Section 4.1.2.
 */

#include <gtest/gtest.h>

#include "os/page_group_manager.hh"
#include "sim/stats.hh"

using namespace sasos;
using namespace sasos::os;

class PgManTest : public ::testing::Test
{
  protected:
    PgManTest() : state_(1024), root_("t"), mgr_(state_, &root_)
    {
        a_ = state_.createDomain("a").id;
        b_ = state_.createDomain("b").id;
        seg_ = state_.segments.create("seg", 8);
        first_ = state_.segments.find(seg_)->firstPage;
        mgr_.registerSegment(seg_);
    }

    void
    attach(DomainId d, vm::Access rights)
    {
        state_.domain(d).prot.attachSegment(seg_, rights);
        state_.noteAttached(d, seg_);
    }

    void
    override(DomainId d, vm::Vpn vpn, vm::Access rights)
    {
        state_.domain(d).prot.setPageRights(vpn, rights);
        state_.notePageOverride(d, vpn);
    }

    VmState state_;
    stats::Group root_;
    PageGroupManager mgr_;
    DomainId a_ = 0;
    DomainId b_ = 0;
    vm::SegmentId seg_ = 0;
    vm::Vpn first_;
};

TEST_F(PgManTest, DefaultGroupSharedByPlainPages)
{
    attach(a_, vm::Access::ReadWrite);
    const PageGroupState s0 = mgr_.pageState(first_);
    const PageGroupState s1 = mgr_.pageState(first_ + 1);
    EXPECT_EQ(s0.aid, s1.aid);
    EXPECT_EQ(s0.rights, vm::Access::ReadWrite);
    EXPECT_EQ(s0.aid, mgr_.defaultGroupOf(seg_));
}

TEST_F(PgManTest, UnmappedPageGoesToNullGroup)
{
    const PageGroupState s = mgr_.pageState(vm::Vpn(7));
    EXPECT_EQ(s.aid, kNullGroup);
    EXPECT_EQ(s.rights, vm::Access::None);
    EXPECT_FALSE(mgr_.domainHasGroup(a_, kNullGroup));
}

TEST_F(PgManTest, MembershipFollowsAttachment)
{
    attach(a_, vm::Access::ReadWrite);
    const GroupId aid = mgr_.defaultGroupOf(seg_);
    EXPECT_TRUE(mgr_.domainHasGroup(a_, aid));
    EXPECT_FALSE(mgr_.domainHasGroup(b_, aid));
    attach(b_, vm::Access::ReadWrite);
    EXPECT_TRUE(mgr_.domainHasGroup(b_, aid));
    EXPECT_FALSE(mgr_.domainHasGroup(999, aid));
}

TEST_F(PgManTest, GlobalGroupBelongsToEveryone)
{
    EXPECT_TRUE(mgr_.domainHasGroup(a_, hw::kGlobalGroup));
    EXPECT_FALSE(mgr_.writeDisabled(a_, hw::kGlobalGroup));
}

TEST_F(PgManTest, WriteDisableBitForReadOnlyAttach)
{
    // Footnote 7 of the paper: a read-only domain in a read-write
    // group gets the D bit instead of a separate group.
    attach(a_, vm::Access::ReadWrite);
    attach(b_, vm::Access::Read);
    const GroupId aid = mgr_.defaultGroupOf(seg_);
    EXPECT_EQ(mgr_.pageState(first_).rights, vm::Access::ReadWrite);
    EXPECT_FALSE(mgr_.writeDisabled(a_, aid));
    EXPECT_TRUE(mgr_.writeDisabled(b_, aid));
    EXPECT_TRUE(mgr_.domainHasGroup(b_, aid));
}

TEST_F(PgManTest, OverrideSplitsPageIntoNewGroup)
{
    // Section 4.1.2: changing rights for a subset of domains forces
    // the page into another group.
    attach(a_, vm::Access::ReadWrite);
    attach(b_, vm::Access::ReadWrite);
    const GroupId default_aid = mgr_.defaultGroupOf(seg_);

    override(a_, first_, vm::Access::Read);
    const PageGroupState split = mgr_.regroupPage(first_);
    EXPECT_NE(split.aid, default_aid);
    EXPECT_EQ(mgr_.splits.value(), 1u);
    // Vector {a:R, b:RW} is expressible: rights RW, a gets D.
    EXPECT_EQ(split.rights, vm::Access::ReadWrite);
    EXPECT_TRUE(mgr_.writeDisabled(a_, split.aid));
    EXPECT_FALSE(mgr_.writeDisabled(b_, split.aid));
    // Other pages stay in the default group.
    EXPECT_EQ(mgr_.pageState(first_ + 1).aid, default_aid);
}

TEST_F(PgManTest, SameVectorSharesOneSplitGroup)
{
    attach(a_, vm::Access::ReadWrite);
    attach(b_, vm::Access::ReadWrite);
    override(a_, first_, vm::Access::Read);
    override(a_, first_ + 1, vm::Access::Read);
    const PageGroupState s0 = mgr_.regroupPage(first_);
    const PageGroupState s1 = mgr_.regroupPage(first_ + 1);
    EXPECT_EQ(s0.aid, s1.aid);
    EXPECT_EQ(mgr_.splits.value(), 1u);
}

TEST_F(PgManTest, ClearedOverrideFoldsBackToDefault)
{
    attach(a_, vm::Access::ReadWrite);
    override(a_, first_, vm::Access::Read);
    const PageGroupState split = mgr_.regroupPage(first_);
    EXPECT_NE(split.aid, mgr_.defaultGroupOf(seg_));

    state_.domain(a_).prot.clearPageRights(first_);
    state_.notePageOverrideCleared(a_, first_);
    const PageGroupState back = mgr_.regroupPage(first_);
    EXPECT_EQ(back.aid, mgr_.defaultGroupOf(seg_));
}

TEST_F(PgManTest, EmptySplitGroupIsRecycled)
{
    attach(a_, vm::Access::ReadWrite);
    override(a_, first_, vm::Access::Read);
    mgr_.regroupPage(first_);
    EXPECT_EQ(mgr_.groupsFreed.value(), 0u);

    state_.domain(a_).prot.clearPageRights(first_);
    state_.notePageOverrideCleared(a_, first_);
    mgr_.regroupPage(first_);
    EXPECT_EQ(mgr_.groupsFreed.value(), 1u);
}

TEST_F(PgManTest, MaskedPageMovesToExemptOnlyGroup)
{
    // The paging-server pattern: mask None with the pager exempt
    // puts the page in a group only the pager can use (Table 1).
    attach(a_, vm::Access::ReadWrite);
    const DomainId pager = state_.createDomain("pager").id;
    state_.domain(pager).prot.attachSegment(seg_, vm::Access::ReadWrite);
    state_.noteAttached(pager, seg_);

    state_.setPageMask(first_, vm::Access::None, pager);
    const PageGroupState s = mgr_.regroupPage(first_);
    EXPECT_TRUE(mgr_.domainHasGroup(pager, s.aid));
    EXPECT_FALSE(mgr_.domainHasGroup(a_, s.aid));
}

TEST_F(PgManTest, FullyMaskedPageInNullGroup)
{
    attach(a_, vm::Access::ReadWrite);
    state_.setPageMask(first_, vm::Access::None);
    const PageGroupState s = mgr_.regroupPage(first_);
    EXPECT_EQ(s.aid, kNullGroup);
}

TEST_F(PgManTest, InexpressibleVectorFavorsRequestedDomain)
{
    // {a: R, b: W} cannot be one (Rights, D) combination: read access
    // cannot be denied to b while granting it to a.
    attach(a_, vm::Access::Read);
    attach(b_, vm::Access::Write);
    override(a_, first_, vm::Access::Read);
    override(b_, first_, vm::Access::Write);

    const PageGroupState for_a = mgr_.regroupPageFor(first_, a_);
    EXPECT_TRUE(mgr_.domainHasGroup(a_, for_a.aid));
    EXPECT_FALSE(mgr_.domainHasGroup(b_, for_a.aid));
    EXPECT_GE(mgr_.inexpressible.value(), 1u);

    const PageGroupState for_b = mgr_.regroupPageFor(first_, b_);
    EXPECT_TRUE(mgr_.domainHasGroup(b_, for_b.aid));
    EXPECT_FALSE(mgr_.domainHasGroup(a_, for_b.aid));
    EXPECT_NE(for_a.aid, for_b.aid);
    // The page hopped between views: an alternation.
    EXPECT_GE(mgr_.alternations.value(), 1u);
}

TEST_F(PgManTest, GroupsOfDomainListsDefaultsAndSplits)
{
    attach(a_, vm::Access::ReadWrite);
    mgr_.defaultGroupOf(seg_);
    override(a_, first_, vm::Access::Read);
    attach(b_, vm::Access::ReadWrite);
    mgr_.regroupPage(first_);
    const auto groups = mgr_.groupsOf(a_);
    EXPECT_EQ(groups.size(), 2u); // default + split
}

TEST_F(PgManTest, GroupsOfSegment)
{
    attach(a_, vm::Access::ReadWrite);
    attach(b_, vm::Access::ReadWrite);
    mgr_.defaultGroupOf(seg_);
    override(a_, first_, vm::Access::Read);
    mgr_.regroupPage(first_);
    EXPECT_EQ(mgr_.groupsOfSegment(seg_).size(), 2u);
}

TEST_F(PgManTest, ReleaseSegmentFreesItsGroups)
{
    attach(a_, vm::Access::ReadWrite);
    mgr_.defaultGroupOf(seg_);
    override(a_, first_, vm::Access::Read);
    mgr_.regroupPage(first_);
    const std::size_t live = mgr_.liveGroups();
    EXPECT_EQ(live, 2u);
    mgr_.releaseSegment(seg_);
    EXPECT_EQ(mgr_.liveGroups(), 0u);
    EXPECT_EQ(mgr_.groupsFreed.value(), live);
}

TEST_F(PgManTest, AidRecyclingReusesFreedIds)
{
    attach(a_, vm::Access::ReadWrite);
    override(a_, first_, vm::Access::Read);
    const GroupId split = mgr_.regroupPage(first_).aid;
    state_.domain(a_).prot.clearPageRights(first_);
    state_.notePageOverrideCleared(a_, first_);
    mgr_.regroupPage(first_); // frees the split group
    override(a_, first_ + 1, vm::Access::Read);
    const GroupId reused = mgr_.regroupPage(first_ + 1).aid;
    EXPECT_EQ(reused, split);
}

TEST_F(PgManTest, PageMovesCounted)
{
    attach(a_, vm::Access::ReadWrite);
    override(a_, first_, vm::Access::Read);
    mgr_.regroupPage(first_);
    const u64 moves = mgr_.pageMoves.value();
    EXPECT_GE(moves, 1u);
    // Regrouping with no change moves nothing.
    mgr_.regroupPage(first_);
    EXPECT_EQ(mgr_.pageMoves.value(), moves);
}

TEST_F(PgManTest, DefaultRightsTrackAttaches)
{
    attach(a_, vm::Access::Read);
    EXPECT_EQ(mgr_.defaultRightsOf(seg_), vm::Access::Read);
    attach(b_, vm::Access::ReadWrite);
    EXPECT_EQ(mgr_.defaultRightsOf(seg_), vm::Access::ReadWrite);
}
