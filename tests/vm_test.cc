/**
 * @file
 * Unit tests for the vm substrate: addresses, rights, segments, the
 * global page table (no-homonym/no-synonym invariants), protection
 * tables, frame allocation and the linear-page-table space model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/random.hh"
#include "snap/snapio.hh"
#include "vm/address.hh"
#include "vm/linear_page_table.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/prot_table.hh"
#include "vm/rights.hh"
#include "vm/segment.hh"

using namespace sasos;
using namespace sasos::vm;

TEST(AddressTest, PageDecomposition)
{
    const VAddr va(0x12345678);
    EXPECT_EQ(pageOf(va).number(), 0x12345u);
    EXPECT_EQ(offsetOf(va), 0x678u);
    EXPECT_EQ(baseOf(pageOf(va)).raw(), 0x12345000u);
}

TEST(AddressTest, TranslateCombinesFrameAndOffset)
{
    const VAddr va(0xABC123);
    const Pfn pfn(0x77);
    EXPECT_EQ(translate(va, pfn).raw(), (0x77ull << 12) | 0x123u);
}

TEST(AddressTest, CustomPageShift)
{
    const VAddr va(0x10000);
    EXPECT_EQ(pageOf(va, 16).number(), 1u);
    EXPECT_EQ(offsetOf(va, 16), 0u);
}

TEST(AddressTest, StrongTypesCompare)
{
    EXPECT_LT(Vpn(1), Vpn(2));
    EXPECT_EQ(VAddr(5) + 3, VAddr(8));
    EXPECT_EQ(Vpn(5) + 2, Vpn(7));
}

TEST(RightsTest, IncludesChecksSubsets)
{
    EXPECT_TRUE(includes(Access::ReadWrite, Access::Read));
    EXPECT_TRUE(includes(Access::ReadWrite, Access::Write));
    EXPECT_FALSE(includes(Access::Read, Access::Write));
    EXPECT_TRUE(includes(Access::All, Access::ReadWrite));
    EXPECT_TRUE(includes(Access::None, Access::None));
    EXPECT_FALSE(includes(Access::None, Access::Read));
}

TEST(RightsTest, RequiredRightPerAccessType)
{
    EXPECT_EQ(requiredRight(AccessType::Load), Access::Read);
    EXPECT_EQ(requiredRight(AccessType::Store), Access::Write);
    EXPECT_EQ(requiredRight(AccessType::IFetch), Access::Execute);
}

TEST(RightsTest, OperatorsComposeAndMask)
{
    EXPECT_EQ(Access::Read | Access::Write, Access::ReadWrite);
    EXPECT_EQ(Access::ReadWrite & Access::Read, Access::Read);
    EXPECT_EQ(Access::ReadWrite & ~Access::Write, Access::Read);
    EXPECT_EQ(~Access::None, Access::All);
}

TEST(RightsTest, ToStringRendering)
{
    EXPECT_EQ(toString(Access::None), "---");
    EXPECT_EQ(toString(Access::ReadWrite), "rw-");
    EXPECT_EQ(toString(Access::All), "rwx");
    EXPECT_EQ(toString(Access::ReadExecute), "r-x");
}

TEST(SegmentTest, CreationAssignsDisjointRanges)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 10);
    const SegmentId b = table.create("b", 20);
    const Segment *sa = table.find(a);
    const Segment *sb = table.find(b);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    // Ranges must not overlap.
    EXPECT_TRUE(sa->lastPage() < sb->firstPage ||
                sb->lastPage() < sa->firstPage);
}

TEST(SegmentTest, AddressesNeverReused)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 16);
    const Vpn first_a = table.find(a)->firstPage;
    table.destroy(a);
    const SegmentId b = table.create("b", 16);
    // The new segment must not reuse the retired range.
    EXPECT_GT(table.find(b)->firstPage.number(), first_a.number());
}

TEST(SegmentTest, FindByPage)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 4);
    const Segment *seg = table.find(a);
    EXPECT_EQ(table.findByPage(seg->firstPage), seg);
    EXPECT_EQ(table.findByPage(seg->lastPage()), seg);
    EXPECT_EQ(table.findByPage(Vpn(seg->lastPage().number() + 1)), nullptr);
    EXPECT_EQ(table.findByPage(Vpn(0)), nullptr);
}

TEST(SegmentTest, FindByPageAfterDestroy)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 4);
    const Vpn page = table.find(a)->firstPage;
    table.destroy(a);
    EXPECT_EQ(table.findByPage(page), nullptr);
    EXPECT_EQ(table.find(a), nullptr);
}

TEST(SegmentTest, PowerOfTwoAlignment)
{
    SegmentTable table;
    table.create("pad", 3); // misalign the allocator
    const SegmentId s = table.create("aligned", 16, true);
    const Segment *seg = table.find(s);
    EXPECT_TRUE(seg->isPowerOfTwoAligned());
    EXPECT_EQ(seg->firstPage.number() % 16, 0u);
}

TEST(SegmentTest, NonPow2SizeNeverAligned)
{
    SegmentTable table;
    const SegmentId s = table.create("odd", 12, true);
    EXPECT_FALSE(table.find(s)->isPowerOfTwoAligned());
}

TEST(SegmentTest, ContainsChecksBounds)
{
    SegmentTable table;
    const Segment *seg = table.find(table.create("s", 2));
    EXPECT_TRUE(seg->contains(seg->base()));
    EXPECT_TRUE(seg->contains(seg->base() + (2 * kPageBytes - 1)));
    EXPECT_FALSE(seg->contains(seg->base() + 2 * kPageBytes));
}

TEST(SegmentTest, LiveIdsTracksCreationAndDestruction)
{
    SegmentTable table;
    const SegmentId a = table.create("a", 1);
    const SegmentId b = table.create("b", 1);
    EXPECT_EQ(table.liveIds().size(), 2u);
    table.destroy(a);
    const auto live = table.liveIds();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0], b);
}

TEST(FrameAllocatorTest, AllocateAndFree)
{
    FrameAllocator frames(4);
    EXPECT_EQ(frames.capacity(), 4u);
    auto f0 = frames.allocate();
    ASSERT_TRUE(f0.has_value());
    EXPECT_TRUE(frames.isAllocated(*f0));
    EXPECT_EQ(frames.inUse(), 1u);
    frames.free(*f0);
    EXPECT_FALSE(frames.isAllocated(*f0));
    EXPECT_EQ(frames.inUse(), 0u);
}

TEST(FrameAllocatorTest, ExhaustionReturnsNullopt)
{
    FrameAllocator frames(2);
    EXPECT_TRUE(frames.allocate().has_value());
    EXPECT_TRUE(frames.allocate().has_value());
    EXPECT_FALSE(frames.allocate().has_value());
}

TEST(FrameAllocatorTest, FramesAreRecycled)
{
    FrameAllocator frames(1);
    const Pfn f = *frames.allocate();
    frames.free(f);
    EXPECT_EQ(frames.allocate(), f);
}

/**
 * The allocator keeps never-used frames implicit. It must hand out the
 * same frames as a plain explicit free list (frame 0 on top), and its
 * images must be the v4 encoding of that list, through save -> load
 * mid-stream: the longest bottom run kFrames-1, kFrames-2, ... is the
 * never-used run, and the rest of the list is the stack.
 */
TEST(FrameAllocatorTest, MatchesExplicitFreeListThroughSaveLoad)
{
    constexpr u64 kFrames = 64;
    std::vector<u64> free_list; // bottom first; back is next out
    for (u64 f = kFrames; f > 0; --f)
        free_list.push_back(f - 1);
    std::vector<bool> held(kFrames, false);
    auto model_image = [&] {
        std::size_t merged = 0;
        while (merged < free_list.size() &&
               free_list[merged] == kFrames - 1 - merged)
            ++merged;
        const u64 run = kFrames - merged;
        snap::SnapWriter w;
        w.putTag("frames");
        w.put64(kFrames);
        w.put64(kFrames - free_list.size());
        w.put64(run);
        for (u64 f = 0; f < run; ++f)
            w.put32(held[f] ? 1 : 0);
        w.put64(free_list.size() - merged);
        for (std::size_t i = merged; i < free_list.size(); ++i)
            w.put64(free_list[i]);
        return std::move(w).seal();
    };

    auto frames = std::make_unique<FrameAllocator>(kFrames);
    Rng rng(31);
    u64 high_water = 0; // frames ever handed out: [0, high_water)
    int op = 0;
    auto allocate = [&] {
        const auto got = frames->allocate();
        ASSERT_EQ(got.has_value(), !free_list.empty()) << "op " << op;
        if (got) {
            ASSERT_EQ(got->number(), free_list.back()) << "op " << op;
            free_list.pop_back();
            held[got->number()] = true;
            high_water = std::max(high_water, got->number() + 1);
        }
    };
    auto release = [&](u64 f) {
        frames->free(Pfn(f));
        free_list.push_back(f);
        held[f] = false;
    };
    auto save_load = [&] {
        snap::SnapWriter w;
        frames->save(w);
        const std::vector<u8> image = std::move(w).seal();
        ASSERT_EQ(image, model_image()) << "op " << op;
        frames = std::make_unique<FrameAllocator>(kFrames);
        snap::SnapReader r(image);
        frames->load(r);
        r.finish();
    };
    for (; op < 3000; ++op) {
        const u64 roll = rng.nextBelow(100);
        if (op % 500 == 250 && high_water >= 2) {
            // Empty the stack, then free the two frames just below
            // the never-used run, top one first: they sit at the
            // bottom of the stack and the save must merge them into
            // the run.
            while (!free_list.empty() && free_list.back() < high_water)
                allocate();
            release(high_water - 1);
            release(high_water - 2);
            save_load();
        } else if (roll < 55) {
            allocate();
        } else if (roll < 97) {
            const u64 f = rng.nextBelow(kFrames);
            if (!held[f])
                continue;
            release(f);
        } else {
            save_load();
        }
        if (HasFatalFailure())
            return;
        ASSERT_EQ(frames->inUse(), kFrames - free_list.size());
    }
}

TEST(FrameAllocatorDeathTest, DoubleFreePanics)
{
    FrameAllocator frames(2);
    const Pfn f = *frames.allocate();
    frames.free(f);
    EXPECT_DEATH(frames.free(f), "double free");
}

TEST(FrameAllocatorTest, RefcountsTrackSharers)
{
    FrameAllocator frames(4);
    const Pfn f = *frames.allocate();
    EXPECT_EQ(frames.refCount(f), 1u);
    frames.ref(f);
    frames.ref(f);
    EXPECT_EQ(frames.refCount(f), 3u);
    // Dropping sharers keeps the frame allocated until the last one.
    frames.unref(f);
    frames.unref(f);
    EXPECT_EQ(frames.refCount(f), 1u);
    EXPECT_TRUE(frames.isAllocated(f));
    EXPECT_EQ(frames.inUse(), 1u);
    frames.unref(f);
    EXPECT_FALSE(frames.isAllocated(f));
    EXPECT_EQ(frames.refCount(f), 0u);
    EXPECT_EQ(frames.inUse(), 0u);
}

TEST(FrameAllocatorTest, UnrefOfLastReferenceRecyclesTheFrame)
{
    FrameAllocator frames(1);
    const Pfn f = *frames.allocate();
    frames.ref(f);
    EXPECT_FALSE(frames.allocate().has_value());
    frames.unref(f);
    frames.unref(f);
    EXPECT_EQ(frames.allocate(), f);
}

TEST(FrameAllocatorDeathTest, ExclusiveFreeOfSharedFramePanics)
{
    FrameAllocator frames(2);
    const Pfn f = *frames.allocate();
    frames.ref(f);
    // free() is the exclusive-owner form; shared frames must go
    // through unref().
    EXPECT_DEATH(frames.free(f), "freeing shared frame");
}

TEST(FrameAllocatorDeathTest, RefOfUnallocatedFramePanics)
{
    FrameAllocator frames(2);
    const Pfn f = *frames.allocate();
    frames.free(f);
    EXPECT_DEATH(frames.ref(f), "ref of unallocated frame");
}

TEST(PageTableTest, MapLookupUnmap)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    const Translation *t = table.lookup(Vpn(10));
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->pfn, Pfn(3));
    EXPECT_FALSE(t->dirty);
    EXPECT_EQ(table.unmap(Vpn(10)), Pfn(3));
    EXPECT_EQ(table.lookup(Vpn(10)), nullptr);
}

TEST(PageTableTest, ReverseMapTracksFrames)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), Vpn(10));
    EXPECT_EQ(table.pageOfFrame(Pfn(4)), std::nullopt);
    table.unmap(Vpn(10));
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), std::nullopt);
}

TEST(PageTableDeathTest, HomonymForbidden)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    // A second translation for the same virtual page can never exist
    // in a single address space system.
    EXPECT_DEATH(table.map(Vpn(10), Pfn(4)), "homonym");
}

TEST(PageTableDeathTest, SynonymForbidden)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    // Nor can one frame back two virtual pages.
    EXPECT_DEATH(table.map(Vpn(11), Pfn(3)), "synonym");
}

TEST(PageTableTest, MapSharedRelaxesTheSynonymRule)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    // CoW sharing: the same frame may back further pages...
    table.mapShared(Vpn(11), Pfn(3));
    table.mapShared(Vpn(12), Pfn(3));
    EXPECT_EQ(table.frameMappers(Pfn(3)), 3u);
    EXPECT_EQ(table.lookup(Vpn(11))->pfn, Pfn(3));
    // The reverse map reports the lowest mapping page, and unmapping
    // sharers peels them off one at a time.
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), Vpn(10));
    EXPECT_EQ(table.unmap(Vpn(10)), Pfn(3));
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), Vpn(11));
    EXPECT_EQ(table.frameMappers(Pfn(3)), 2u);
    table.unmap(Vpn(11));
    table.unmap(Vpn(12));
    EXPECT_EQ(table.frameMappers(Pfn(3)), 0u);
    EXPECT_EQ(table.pageOfFrame(Pfn(3)), std::nullopt);
}

TEST(PageTableDeathTest, MapSharedRequiresAMappedFrame)
{
    GlobalPageTable table;
    // Sharing only relaxes an existing mapping; a fresh frame must be
    // installed with map().
    EXPECT_DEATH(table.mapShared(Vpn(10), Pfn(3)), "sharing unmapped frame");
}

TEST(PageTableDeathTest, MapSharedStillForbidsHomonyms)
{
    GlobalPageTable table;
    table.map(Vpn(10), Pfn(3));
    table.mapShared(Vpn(11), Pfn(3));
    EXPECT_DEATH(table.mapShared(Vpn(11), Pfn(3)), "homonym");
}

TEST(PageTableTest, UsageBits)
{
    GlobalPageTable table;
    table.map(Vpn(1), Pfn(1));
    table.markReferenced(Vpn(1));
    EXPECT_TRUE(table.lookup(Vpn(1))->referenced);
    EXPECT_FALSE(table.lookup(Vpn(1))->dirty);
    table.markDirty(Vpn(1));
    EXPECT_TRUE(table.lookup(Vpn(1))->dirty);
    table.clearUsage(Vpn(1));
    EXPECT_FALSE(table.lookup(Vpn(1))->referenced);
    EXPECT_FALSE(table.lookup(Vpn(1))->dirty);
}

TEST(PageTableTest, ForEachVisitsAllMappings)
{
    GlobalPageTable table;
    table.map(Vpn(1), Pfn(10));
    table.map(Vpn(2), Pfn(11));
    int seen = 0;
    table.forEach([&](Vpn, const Translation &) { ++seen; });
    EXPECT_EQ(seen, 2);
    EXPECT_EQ(table.size(), 2u);
}

class ProtTableTest : public ::testing::Test
{
  protected:
    ProtTableTest()
    {
        seg_ = segments_.create("seg", 8);
        other_ = segments_.create("other", 8);
    }

    SegmentTable segments_;
    SegmentId seg_;
    SegmentId other_;
    ProtectionTable prot_;
};

TEST_F(ProtTableTest, UnattachedIsNone)
{
    const Vpn page = segments_.find(seg_)->firstPage;
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::None);
}

TEST_F(ProtTableTest, SegmentGrantApplies)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Vpn page = segments_.find(seg_)->firstPage;
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::ReadWrite);
    // But not to other segments.
    const Vpn other_page = segments_.find(other_)->firstPage;
    EXPECT_EQ(prot_.effectiveRights(other_page, segments_), Access::None);
}

TEST_F(ProtTableTest, PageOverrideWins)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Vpn page = segments_.find(seg_)->firstPage;
    prot_.setPageRights(page, Access::Read);
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::Read);
    // Neighbouring pages keep the grant.
    EXPECT_EQ(prot_.effectiveRights(page + 1, segments_),
              Access::ReadWrite);
    prot_.clearPageRights(page);
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::ReadWrite);
}

TEST_F(ProtTableTest, OverrideCanDenyEntirely)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Vpn page = segments_.find(seg_)->firstPage;
    prot_.setPageRights(page, Access::None);
    EXPECT_EQ(prot_.effectiveRights(page, segments_), Access::None);
    EXPECT_TRUE(prot_.hasPageOverride(page));
}

TEST_F(ProtTableTest, DetachDropsGrantAndOverrides)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    const Segment *seg = segments_.find(seg_);
    prot_.setPageRights(seg->firstPage, Access::Read);
    prot_.setPageRights(seg->firstPage + 1, Access::None);
    const u64 removed = prot_.detachSegment(*seg);
    EXPECT_EQ(removed, 3u); // grant + 2 overrides
    EXPECT_FALSE(prot_.isAttached(seg_));
    EXPECT_EQ(prot_.effectiveRights(seg->firstPage, segments_),
              Access::None);
    EXPECT_EQ(prot_.pageOverrides(), 0u);
}

TEST_F(ProtTableTest, SetSegmentRightsReplacesGrant)
{
    prot_.attachSegment(seg_, Access::ReadWrite);
    prot_.setSegmentRights(seg_, Access::Read);
    EXPECT_EQ(prot_.segmentRights(seg_), Access::Read);
}

TEST_F(ProtTableTest, AttachedSegmentIds)
{
    prot_.attachSegment(seg_, Access::Read);
    prot_.attachSegment(other_, Access::ReadWrite);
    auto ids = prot_.attachedSegmentIds();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<SegmentId>{seg_, other_}));
}

TEST_F(ProtTableTest, SpaceAccountsEntries)
{
    prot_.attachSegment(seg_, Access::Read);
    prot_.setPageRights(segments_.find(seg_)->firstPage, Access::None);
    EXPECT_EQ(prot_.spaceBytes(16), 2u * 16u);
}

TEST(LinearPageTableTest, EmptyCostsNothing)
{
    LinearPageTableModel model;
    EXPECT_EQ(model.flatBytes(), 0u);
    EXPECT_EQ(model.twoLevelBytes(), 0u);
}

TEST(LinearPageTableTest, FlatSpansMinToMax)
{
    LinearPageTableModel model(8);
    model.addRange(Vpn(100), 1);
    model.addRange(Vpn(1000), 1);
    // Span = 901 pages even though only 2 are mapped: the sparsity
    // problem of Section 3.1.
    EXPECT_EQ(model.flatBytes(), 901u * 8u);
    EXPECT_EQ(model.denseBytes(), 2u * 8u);
}

TEST(LinearPageTableTest, TwoLevelOnlyAllocatesTouchedLeaves)
{
    LinearPageTableModel model(8, 12); // 512 PTEs per 4K leaf
    model.addRange(Vpn(0), 1);
    model.addRange(Vpn(512 * 100), 1); // a distant leaf
    // Two leaves + a directory spanning 101 leaf slots.
    EXPECT_EQ(model.twoLevelBytes(), 2u * 4096u + 101u * 8u);
}

TEST(LinearPageTableTest, SparseIsWorseThanDense)
{
    LinearPageTableModel sparse(8);
    for (int i = 0; i < 10; ++i)
        sparse.addRange(Vpn(static_cast<u64>(i) * 100000), 16);
    EXPECT_GT(sparse.flatBytes(), 100u * sparse.denseBytes());
}

TEST(LinearPageTableTest, MappedPagesDeduplicates)
{
    LinearPageTableModel model;
    model.addRange(Vpn(5), 4);
    model.addRange(Vpn(7), 4); // overlaps two pages
    EXPECT_EQ(model.mappedPages(), 6u);
}
