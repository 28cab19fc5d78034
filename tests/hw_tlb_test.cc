/**
 * @file
 * Tests for the TLB's three personalities and the page-group cache.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "hw/pagegroup_cache.hh"
#include "hw/tlb.hh"
#include "sim/stats.hh"

using namespace sasos;
using namespace sasos::hw;

namespace
{

TlbConfig
smallTlb(TlbKind kind, std::size_t ways = 8, std::size_t sets = 1)
{
    TlbConfig config;
    config.kind = kind;
    config.sets = sets;
    config.ways = ways;
    return config;
}

TlbEntry
entryFor(u64 pfn, vm::Access rights = vm::Access::ReadWrite,
         DomainId asid = 0, GroupId aid = kGlobalGroup)
{
    TlbEntry entry;
    entry.pfn = vm::Pfn(pfn);
    entry.rights = rights;
    entry.asid = asid;
    entry.aid = aid;
    return entry;
}

} // namespace

TEST(TlbTest, MissThenHit)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::TranslationOnly), &root);
    EXPECT_EQ(tlb.lookup(vm::Vpn(5)), nullptr);
    tlb.insert(vm::Vpn(5), entryFor(50));
    TlbEntry *entry = tlb.lookup(vm::Vpn(5));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->pfn, vm::Pfn(50));
    EXPECT_EQ(tlb.hits.value(), 1u);
    EXPECT_EQ(tlb.misses.value(), 1u);
}

TEST(TlbTest, TranslationOnlyIgnoresAsid)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::TranslationOnly), &root);
    tlb.insert(vm::Vpn(5), entryFor(50));
    // Any domain sees the single shared translation.
    EXPECT_NE(tlb.lookup(vm::Vpn(5), 1), nullptr);
    EXPECT_NE(tlb.lookup(vm::Vpn(5), 2), nullptr);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(TlbTest, ConventionalReplicatesPerAsid)
{
    // Section 3.1: sharing replicates TLB entries per domain even
    // though the translation is identical.
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::ReadWrite, 1));
    EXPECT_EQ(tlb.lookup(vm::Vpn(5), 2), nullptr); // other domain misses
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::Read, 2));
    EXPECT_EQ(tlb.occupancy(), 2u); // two replicas for one page

    EXPECT_EQ(tlb.lookup(vm::Vpn(5), 1)->rights, vm::Access::ReadWrite);
    EXPECT_EQ(tlb.lookup(vm::Vpn(5), 2)->rights, vm::Access::Read);
}

TEST(TlbTest, PageGroupSingleEntryPerPage)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::PageGroup), &root);
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::ReadWrite, 0, 7));
    TlbEntry *entry = tlb.lookup(vm::Vpn(5), 99); // asid irrelevant
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->aid, 7);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(TlbTest, SetRightsInPlace)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::ReadWrite, 3));
    EXPECT_TRUE(tlb.setRights(vm::Vpn(5), vm::Access::Read, 3));
    EXPECT_EQ(tlb.peek(vm::Vpn(5), 3)->rights, vm::Access::Read);
    EXPECT_FALSE(tlb.setRights(vm::Vpn(6), vm::Access::Read, 3));
}

TEST(TlbTest, SetGroupMovesPage)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::PageGroup), &root);
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::ReadWrite, 0, 7));
    EXPECT_TRUE(tlb.setGroup(vm::Vpn(5), 9, vm::Access::Read));
    const TlbEntry *entry = tlb.peek(vm::Vpn(5));
    EXPECT_EQ(entry->aid, 9);
    EXPECT_EQ(entry->rights, vm::Access::Read);
}

TEST(TlbTest, PurgePageDropsAllReplicas)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::Read, 2));
    tlb.insert(vm::Vpn(6), entryFor(60, vm::Access::Read, 1));
    EXPECT_EQ(tlb.purgePage(vm::Vpn(5)), 2u);
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_NE(tlb.peek(vm::Vpn(6), 1), nullptr);
}

TEST(TlbTest, PurgePageDropsReplicasUnderThreeAsids)
{
    // Once fully associative (a 32-way indexed set), once 4 sets of 4
    // ways where pages 5 and 9 fill one set.
    for (const auto &[ways, sets] :
         {std::pair<std::size_t, std::size_t>{32, 1}, {4, 4}}) {
        SCOPED_TRACE(std::to_string(sets) + " sets");
        stats::Group root("t");
        Tlb tlb(smallTlb(TlbKind::Conventional, ways, sets), &root);
        for (DomainId asid : {1, 2, 3})
            tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::Read, asid));
        tlb.insert(vm::Vpn(9), entryFor(90, vm::Access::Read, 1));
        tlb.insert(vm::Vpn(6), entryFor(60, vm::Access::Read, 3));
        ASSERT_EQ(tlb.occupancy(), 5u);

        EXPECT_EQ(tlb.purgePage(vm::Vpn(5)), 3u);
        EXPECT_EQ(tlb.purgedEntries.value(), 3u);
        EXPECT_EQ(tlb.occupancy(), 2u);
        for (DomainId asid : {1, 2, 3})
            EXPECT_EQ(tlb.peek(vm::Vpn(5), asid), nullptr);
        EXPECT_NE(tlb.peek(vm::Vpn(9), 1), nullptr);
        EXPECT_NE(tlb.peek(vm::Vpn(6), 3), nullptr);
        EXPECT_EQ(tlb.purgePage(vm::Vpn(5)), 0u);

        // The freed ways take the page back.
        tlb.insert(vm::Vpn(5), entryFor(51, vm::Access::Read, 2));
        ASSERT_NE(tlb.peek(vm::Vpn(5), 2), nullptr);
        EXPECT_EQ(tlb.peek(vm::Vpn(5), 2)->pfn, vm::Pfn(51));
    }
}

TEST(TlbTest, PurgePageAsidDropsOneReplica)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(5), entryFor(50, vm::Access::Read, 2));
    EXPECT_TRUE(tlb.purgePageAsid(vm::Vpn(5), 1));
    EXPECT_EQ(tlb.peek(vm::Vpn(5), 1), nullptr);
    EXPECT_NE(tlb.peek(vm::Vpn(5), 2), nullptr);
}

TEST(TlbTest, PurgeAsidScansWholeTlb)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(1), entryFor(10, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(2), entryFor(20, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(3), entryFor(30, vm::Access::Read, 2));
    const PurgeResult result = tlb.purgeAsid(1);
    EXPECT_EQ(result.scanned, tlb.capacity());
    EXPECT_EQ(result.invalidated, 2u);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(TlbTest, PurgeRangeRespectsAsidFilter)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(10), entryFor(1, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(11), entryFor(2, vm::Access::Read, 2));
    tlb.insert(vm::Vpn(20), entryFor(3, vm::Access::Read, 1));
    const PurgeResult result = tlb.purgeRange(DomainId{1}, vm::Vpn(10), 5);
    EXPECT_EQ(result.invalidated, 1u);
    EXPECT_EQ(tlb.peek(vm::Vpn(11), 2)->pfn, vm::Pfn(2));
    EXPECT_NE(tlb.peek(vm::Vpn(20), 1), nullptr);
}

TEST(TlbTest, PurgeRangeAllAsids)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(10), entryFor(1, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(11), entryFor(2, vm::Access::Read, 2));
    const PurgeResult result =
        tlb.purgeRange(std::nullopt, vm::Vpn(10), 5);
    EXPECT_EQ(result.invalidated, 2u);
}

TEST(TlbTest, PurgeAllFlashInvalidates)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::TranslationOnly), &root);
    tlb.insert(vm::Vpn(1), entryFor(1));
    tlb.insert(vm::Vpn(2), entryFor(2));
    EXPECT_EQ(tlb.purgeAll(), 2u);
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_EQ(tlb.purgedEntries.value(), 2u);
}

TEST(TlbTest, EvictionWhenFull)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::TranslationOnly, 2), &root);
    tlb.insert(vm::Vpn(1), entryFor(1));
    tlb.insert(vm::Vpn(2), entryFor(2));
    tlb.lookup(vm::Vpn(1)); // 2 becomes LRU
    tlb.insert(vm::Vpn(3), entryFor(3));
    EXPECT_EQ(tlb.evictions.value(), 1u);
    EXPECT_EQ(tlb.peek(vm::Vpn(2)), nullptr);
    EXPECT_NE(tlb.peek(vm::Vpn(1)), nullptr);
}

TEST(TlbTest, SetAssociativeIndexing)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::TranslationOnly, 2, 4), &root);
    // Pages 0 and 4 map to set 0; 1 maps to set 1.
    tlb.insert(vm::Vpn(0), entryFor(10));
    tlb.insert(vm::Vpn(4), entryFor(11));
    tlb.insert(vm::Vpn(1), entryFor(12));
    EXPECT_NE(tlb.peek(vm::Vpn(0)), nullptr);
    EXPECT_NE(tlb.peek(vm::Vpn(4)), nullptr);
    EXPECT_NE(tlb.peek(vm::Vpn(1)), nullptr);
    // A third conflicting page evicts within set 0 only.
    tlb.insert(vm::Vpn(8), entryFor(13));
    EXPECT_EQ(tlb.occupancy(), 3u);
    EXPECT_NE(tlb.peek(vm::Vpn(1)), nullptr);
}

TEST(TlbTest, ForEachVisitsEntries)
{
    stats::Group root("t");
    Tlb tlb(smallTlb(TlbKind::Conventional), &root);
    tlb.insert(vm::Vpn(1), entryFor(1, vm::Access::Read, 1));
    tlb.insert(vm::Vpn(2), entryFor(2, vm::Access::Read, 2));
    int count = 0;
    tlb.forEach([&](vm::Vpn, DomainId, TlbEntry &) { ++count; });
    EXPECT_EQ(count, 2);
}

// ---------------------------------------------------------------------
// Page-group cache

TEST(PageGroupCacheTest, GlobalGroupAlwaysHits)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{4}, &root);
    auto match = cache.lookup(kGlobalGroup);
    ASSERT_TRUE(match.has_value());
    EXPECT_FALSE(match->writeDisable);
    EXPECT_EQ(cache.globalHits.value(), 1u);
}

TEST(PageGroupCacheTest, MissThenInsertThenHit)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{4}, &root);
    EXPECT_FALSE(cache.lookup(7).has_value());
    cache.insert(7, true);
    auto match = cache.lookup(7);
    ASSERT_TRUE(match.has_value());
    EXPECT_TRUE(match->writeDisable);
}

TEST(PageGroupCacheTest, InsertUpdatesDBitInPlace)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{4}, &root);
    cache.insert(7, false);
    cache.insert(7, true);
    EXPECT_EQ(cache.occupancy(), 1u);
    EXPECT_TRUE(cache.peek(7)->writeDisable);
}

TEST(PageGroupCacheTest, LruEvictionAtCapacity)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{2, PolicyKind::Lru}, &root);
    cache.insert(1);
    cache.insert(2);
    cache.lookup(1); // 2 is LRU
    cache.insert(3);
    EXPECT_FALSE(cache.peek(2).has_value());
    EXPECT_TRUE(cache.peek(1).has_value());
    EXPECT_EQ(cache.evictions.value(), 1u);
}

TEST(PageGroupCacheTest, RemoveAndPurge)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{4}, &root);
    cache.insert(1);
    cache.insert(2);
    EXPECT_TRUE(cache.remove(1));
    EXPECT_FALSE(cache.remove(1));
    EXPECT_EQ(cache.purgeAll(), 1u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(PageGroupCacheTest, LoadAllStopsAtCapacity)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{2}, &root);
    const GroupId groups[] = {1, 2, 3, 4};
    EXPECT_EQ(cache.loadAll(groups), 2u);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(PageGroupCacheTest, LoadAllSkipsGlobalGroup)
{
    stats::Group root("t");
    PageGroupCache cache(PageGroupCacheConfig{4}, &root);
    const GroupId groups[] = {kGlobalGroup, 5};
    EXPECT_EQ(cache.loadAll(groups), 1u);
    EXPECT_TRUE(cache.peek(5).has_value());
}

TEST(PageGroupCacheTest, FourRegisterVariant)
{
    // The original PA-RISC: four PID registers, no useful replacement
    // information (Random policy stands in for an uninformed OS).
    stats::Group root("t");
    PageGroupCache regs(PageGroupCacheConfig{4, PolicyKind::Random, 9},
                        &root);
    for (GroupId g = 1; g <= 4; ++g)
        regs.insert(g);
    EXPECT_EQ(regs.occupancy(), 4u);
    regs.insert(5);
    EXPECT_EQ(regs.occupancy(), 4u); // one of them was displaced
}
