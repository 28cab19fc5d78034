/**
 * @file
 * Tests for replacement policies, the generic associative store and
 * the data cache model, including a randomized equivalence check of
 * the associative store against a reference model, a differential op
 * soup against a naive linear-scan model at narrow and indexed
 * geometries, and parameterized sweeps over cache organizations.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "hw/assoc_cache.hh"
#include "hw/data_cache.hh"
#include "hw/replacement.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "snap/snapio.hh"

using namespace sasos;
using namespace sasos::hw;

TEST(ReplacementTest, ParseNames)
{
    EXPECT_EQ(parsePolicyKind("lru"), PolicyKind::Lru);
    EXPECT_EQ(parsePolicyKind("fifo"), PolicyKind::Fifo);
    EXPECT_EQ(parsePolicyKind("random"), PolicyKind::Random);
    EXPECT_EQ(parsePolicyKind("plru"), PolicyKind::TreePlru);
}

TEST(ReplacementTest, LruEvictsLeastRecentlyUsed)
{
    auto policy = makePolicy(PolicyKind::Lru, 1, 4);
    for (std::size_t way = 0; way < 4; ++way)
        policy->fill(0, way);
    policy->touch(0, 0); // 0 becomes MRU; 1 is now LRU
    EXPECT_EQ(policy->victim(0), 1u);
    policy->touch(0, 1);
    EXPECT_EQ(policy->victim(0), 2u);
}

TEST(ReplacementTest, FifoIgnoresTouches)
{
    auto policy = makePolicy(PolicyKind::Fifo, 1, 4);
    for (std::size_t way = 0; way < 4; ++way)
        policy->fill(0, way);
    policy->touch(0, 0);
    policy->touch(0, 0);
    EXPECT_EQ(policy->victim(0), 0u); // still the oldest fill
}

TEST(ReplacementTest, RandomIsDeterministicPerSeed)
{
    auto a = makePolicy(PolicyKind::Random, 1, 8, 42);
    auto b = makePolicy(PolicyKind::Random, 1, 8, 42);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a->victim(0), b->victim(0));
}

TEST(ReplacementTest, RandomVictimsInRange)
{
    auto policy = makePolicy(PolicyKind::Random, 1, 4, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(policy->victim(0), 4u);
}

TEST(ReplacementTest, TreePlruNeverEvictsMostRecent)
{
    auto policy = makePolicy(PolicyKind::TreePlru, 1, 8);
    for (std::size_t way = 0; way < 8; ++way)
        policy->fill(0, way);
    for (std::size_t way = 0; way < 8; ++way) {
        policy->touch(0, way);
        EXPECT_NE(policy->victim(0), way);
    }
}

TEST(ReplacementTest, PerSetIndependence)
{
    auto policy = makePolicy(PolicyKind::Lru, 2, 2);
    policy->fill(0, 0);
    policy->fill(0, 1);
    policy->fill(1, 1);
    policy->fill(1, 0);
    EXPECT_EQ(policy->victim(0), 0u);
    EXPECT_EQ(policy->victim(1), 1u);
}

TEST(AssocCacheTest, InsertLookupInvalidate)
{
    AssocCache<u64, int> cache(1, 4, PolicyKind::Lru);
    EXPECT_FALSE(cache.insert(0, 10, 100).has_value());
    int *payload = cache.lookup(0, 10);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, 100);
    EXPECT_TRUE(cache.invalidate(0, 10));
    EXPECT_EQ(cache.lookup(0, 10), nullptr);
    EXPECT_FALSE(cache.invalidate(0, 10));
}

TEST(AssocCacheTest, EvictionReportsVictim)
{
    AssocCache<u64, int> cache(1, 2, PolicyKind::Lru);
    cache.insert(0, 1, 10);
    cache.insert(0, 2, 20);
    cache.lookup(0, 1); // 2 is LRU
    auto victim = cache.insert(0, 3, 30);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 2u);
    EXPECT_EQ(victim->payload, 20);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(AssocCacheTest, InvalidWaysFilledFirst)
{
    AssocCache<u64, int> cache(1, 3, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    cache.insert(0, 2, 2);
    cache.invalidate(0, 1);
    EXPECT_FALSE(cache.insert(0, 3, 3).has_value()); // reuses slot
    EXPECT_NE(cache.lookup(0, 2), nullptr);
}

TEST(AssocCacheTest, InvalidateIfScansEverything)
{
    AssocCache<u64, int> cache(2, 2, PolicyKind::Lru);
    cache.insert(0, 2, 1);
    cache.insert(0, 4, 2);
    cache.insert(1, 1, 3);
    cache.insert(1, 3, 4);
    const PurgeResult result = cache.invalidateIf(
        [](u64 tag, const int &) { return tag % 2 == 0; });
    EXPECT_EQ(result.scanned, 4u);
    EXPECT_EQ(result.scanned, cache.capacity());
    EXPECT_EQ(result.invalidated, 2u);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(AssocCacheTest, InvalidateInSetsStopsAtTheRangeEnds)
{
    // Two ways of every set hold a tag; sets 2..5 are the range.
    AssocCache<u64, int> cache(8, 2, PolicyKind::Lru);
    for (std::size_t set = 0; set < 8; ++set) {
        cache.insert(set, 10 + set, 0);
        cache.insert(set, 20 + set, 0);
    }
    const u64 dropped = cache.invalidateInSets(
        2, 4, [](u64, const int &) { return true; });
    EXPECT_EQ(dropped, 8u);
    EXPECT_EQ(cache.occupancy(), 8u);
    for (std::size_t set = 0; set < 8; ++set) {
        const bool in_range = set >= 2 && set < 6;
        SCOPED_TRACE("set " + std::to_string(set));
        EXPECT_EQ(cache.probe(set, 10 + set) == nullptr, in_range);
        EXPECT_EQ(cache.probe(set, 20 + set) == nullptr, in_range);
    }
    EXPECT_EQ(cache.invalidateInSets(
                  7, 1, [](u64 tag, const int &) { return tag == 17; }),
              1u);
    EXPECT_EQ(cache.probe(7, 17), nullptr);
    EXPECT_NE(cache.probe(7, 27), nullptr);
    EXPECT_EQ(cache.invalidateInSets(
                  0, 0, [](u64, const int &) { return true; }),
              0u);
}

TEST(AssocCacheTest, InvalidateInSetsSeesHighWaysFirst)
{
    // Every payload carries the same key; a pred that takes only the
    // first match must drop the highest way.
    AssocCache<u64, int> cache(1, 4, PolicyKind::Lru);
    for (u64 tag = 0; tag < 4; ++tag)
        cache.insert(0, tag, 7);
    bool taken = false;
    EXPECT_EQ(cache.invalidateInSets(0, 1,
                                     [&](u64, const int &key) {
                                         if (key != 7 || taken)
                                             return false;
                                         taken = true;
                                         return true;
                                     }),
              1u);
    EXPECT_EQ(cache.probe(0, 3), nullptr);
    for (u64 tag = 0; tag < 3; ++tag)
        EXPECT_NE(cache.probe(0, tag), nullptr);
}

TEST(AssocCacheTest, InvalidateInSetsKeepsWideSetIndexConsistent)
{
    // 32 ways is an indexed set: every drop must leave the tag index
    // able to find the survivors and to take new tags.
    AssocCache<u64, int> cache(2, 32, PolicyKind::Lru);
    for (u64 tag = 0; tag < 32; ++tag) {
        cache.insert(0, tag, static_cast<int>(tag));
        cache.insert(1, tag, static_cast<int>(tag));
    }
    EXPECT_EQ(cache.invalidateInSets(
                  0, 1, [](u64 tag, const int &) { return tag % 3 != 0; }),
              21u);
    for (u64 tag = 0; tag < 32; ++tag) {
        const int *got = cache.probe(0, tag);
        EXPECT_EQ(got != nullptr, tag % 3 == 0) << "tag " << tag;
        if (got != nullptr) {
            EXPECT_EQ(*got, static_cast<int>(tag));
        }
        EXPECT_NE(cache.probe(1, tag), nullptr) << "tag " << tag;
    }
    for (u64 tag = 100; tag < 121; ++tag)
        EXPECT_FALSE(cache.insert(0, tag, 1).has_value());
    for (u64 tag = 100; tag < 121; ++tag)
        EXPECT_NE(cache.probe(0, tag), nullptr);
    EXPECT_EQ(cache.occupancy(), cache.capacity());
    const PurgeResult all = cache.invalidateIf(
        [](u64, const int &) { return true; });
    EXPECT_EQ(all.scanned, cache.capacity());
    EXPECT_EQ(all.invalidated, cache.capacity());
    EXPECT_EQ(cache.probe(0, 0), nullptr);
}

TEST(AssocCacheTest, InvalidateAllResets)
{
    AssocCache<u64, int> cache(1, 4, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    cache.insert(0, 2, 2);
    EXPECT_EQ(cache.invalidateAll(), 2u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(AssocCacheTest, ProbeDoesNotTouchReplacement)
{
    AssocCache<u64, int> cache(1, 2, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    cache.insert(0, 2, 2); // LRU order: 1, 2
    cache.probe(0, 1);     // must NOT make 1 MRU
    auto victim = cache.insert(0, 3, 3);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 1u);
}

TEST(AssocCacheDeathTest, DuplicateInsertPanics)
{
    AssocCache<u64, int> cache(1, 2, PolicyKind::Lru);
    cache.insert(0, 1, 1);
    EXPECT_DEATH(cache.insert(0, 1, 2), "duplicate");
}

TEST(AssocCacheDeathTest, InvalidateInSetsPastTheLastSetPanics)
{
    AssocCache<u64, int> cache(4, 2, PolicyKind::Lru);
    const auto all = [](u64, const int &) { return true; };
    EXPECT_DEATH(cache.invalidateInSets(3, 2, all), "out of range");
    EXPECT_DEATH(cache.invalidateInSets(5, 0, all), "out of range");
}

/**
 * Randomized equivalence: a fully associative LRU AssocCache must
 * behave exactly like a reference map + LRU list.
 */
TEST(AssocCacheTest, MatchesReferenceModelUnderRandomOps)
{
    constexpr std::size_t kWays = 8;
    AssocCache<u64, u64> cache(1, kWays, PolicyKind::Lru);
    std::map<u64, u64> ref;
    std::list<u64> lru; // front = LRU
    Rng rng(2024);

    auto ref_touch = [&](u64 tag) {
        lru.remove(tag);
        lru.push_back(tag);
    };

    for (int op = 0; op < 4000; ++op) {
        const u64 tag = rng.nextBelow(24);
        switch (rng.nextBelow(3)) {
          case 0: { // lookup
            u64 *got = cache.lookup(0, tag);
            const bool ref_has = ref.count(tag) != 0;
            ASSERT_EQ(got != nullptr, ref_has) << "op " << op;
            if (ref_has) {
                ASSERT_EQ(*got, ref[tag]);
                ref_touch(tag);
            }
            break;
          }
          case 1: { // insert (skip if present)
            if (ref.count(tag))
                break;
            const u64 value = rng.next();
            cache.insert(0, tag, value);
            if (ref.size() == kWays) {
                const u64 victim = lru.front();
                lru.pop_front();
                ref.erase(victim);
            }
            ref[tag] = value;
            ref_touch(tag);
            break;
          }
          default: { // invalidate
            const bool was = cache.invalidate(0, tag);
            ASSERT_EQ(was, ref.erase(tag) != 0);
            lru.remove(tag);
            break;
          }
        }
        ASSERT_EQ(cache.occupancy(), ref.size());
    }
}

// ---------------------------------------------------------------------
// Differential op soup: AssocCache (tag index and recency list on wide
// sets, linear scan on narrow ones) against a naive model that only
// ever scans.

namespace
{

/**
 * The naive reference: one (valid, tag, payload, stamp) record per
 * slot, a linear scan for every probe and, for LRU/FIFO, the
 * lowest-way minimum stamp as victim. Random and tree-PLRU victims
 * come from a policy object of their own driven with the same fills
 * and touches, so the soup checks the store around them.
 */
class NaiveCache
{
  public:
    struct Slot
    {
        bool valid = false;
        u64 tag = 0;
        u64 payload = 0;
        u64 stamp = 0;
    };

    NaiveCache(std::size_t sets, std::size_t ways, PolicyKind kind,
               u64 seed)
        : sets_(sets), ways_(ways), kind_(kind), slots_(sets * ways)
    {
        if (!stamped())
            policy_ = makePolicy(kind, sets, ways, seed);
    }

    /** @return the way holding `tag`, or -1. */
    long
    find(std::size_t set, u64 tag) const
    {
        for (std::size_t way = 0; way < ways_; ++way) {
            const Slot &slot = slots_[set * ways_ + way];
            if (slot.valid && slot.tag == tag)
                return static_cast<long>(way);
        }
        return -1;
    }

    const Slot &at(std::size_t set, std::size_t way) const
    {
        return slots_[set * ways_ + way];
    }

    void
    touch(std::size_t set, std::size_t way)
    {
        if (kind_ == PolicyKind::Lru)
            slots_[set * ways_ + way].stamp = ++clock_;
        else if (policy_)
            policy_->touch(set, way);
    }

    /** @return (way, evicted slot if the set was full). */
    std::pair<std::size_t, std::optional<Slot>>
    insert(std::size_t set, u64 tag, u64 payload)
    {
        std::optional<Slot> evicted;
        std::size_t way = 0;
        while (way < ways_ && slots_[set * ways_ + way].valid)
            ++way;
        if (way == ways_) {
            way = stamped() ? oldest(set) : policy_->victim(set);
            evicted = slots_[set * ways_ + way];
        }
        Slot &slot = slots_[set * ways_ + way];
        slot.valid = true;
        slot.tag = tag;
        slot.payload = payload;
        if (stamped())
            slot.stamp = ++clock_;
        else
            policy_->fill(set, way);
        return {way, evicted};
    }

    Slot &slot(std::size_t i) { return slots_[i]; }
    std::size_t capacity() const { return slots_.size(); }

    std::size_t
    occupancy() const
    {
        std::size_t live = 0;
        for (const Slot &slot : slots_)
            live += slot.valid ? 1 : 0;
        return live;
    }

    void
    invalidateAll()
    {
        for (Slot &slot : slots_) {
            slot.valid = false;
            slot.stamp = 0;
        }
        clock_ = 0;
        if (policy_)
            policy_->reset();
    }

    /** The image AssocCache::save must produce for this state. */
    std::vector<u8>
    image() const
    {
        snap::SnapWriter w;
        w.putTag("assoc");
        w.put64(sets_);
        w.put64(ways_);
        for (const Slot &slot : slots_) {
            w.putBool(slot.valid);
            if (slot.valid) {
                w.put64(slot.tag);
                w.put64(slot.payload);
            }
        }
        if (stamped()) {
            w.putTag("stamps");
            w.put64(slots_.size());
            for (const Slot &slot : slots_)
                w.put64(slot.stamp);
            w.put64(clock_);
        } else {
            policy_->save(w);
        }
        return std::move(w).seal();
    }

  private:
    bool
    stamped() const
    {
        return kind_ == PolicyKind::Lru || kind_ == PolicyKind::Fifo;
    }

    std::size_t
    oldest(std::size_t set) const
    {
        std::size_t best = 0;
        for (std::size_t way = 1; way < ways_; ++way) {
            if (at(set, way).stamp < at(set, best).stamp)
                best = way;
        }
        return best;
    }

    std::size_t sets_;
    std::size_t ways_;
    PolicyKind kind_;
    std::vector<Slot> slots_;
    u64 clock_ = 0;
    std::unique_ptr<ReplacementPolicy> policy_;
};

using SoupCache = AssocCache<u64, u64>;

std::vector<u8>
imageOf(const SoupCache &cache)
{
    snap::SnapWriter w;
    cache.save(
        w, [](snap::SnapWriter &out, u64 tag) { out.put64(tag); },
        [](snap::SnapWriter &out, u64 payload) { out.put64(payload); });
    return std::move(w).seal();
}

void
loadInto(SoupCache &cache, const std::vector<u8> &image)
{
    snap::SnapReader r(image);
    cache.load(
        r, [](snap::SnapReader &in) { return in.get64(); },
        [](snap::SnapReader &in) { return in.get64(); });
    r.finish();
}

/**
 * Drive an AssocCache and the naive model through one random op soup
 * and compare them after every op. A tag space half again the ways
 * keeps sets full and evicting. Purges and save/load take a small
 * share of the ops, which wide geometries spend mostly on save/load,
 * so their sets still fill up between purges. Dense tags are the
 * values [0, tag space); sparse ones are that many random 64-bit
 * values, so the index's home buckets scatter and its probe runs can
 * wrap its end.
 */
void
runSoup(std::size_t sets, std::size_t ways, PolicyKind kind, bool sparse)
{
    constexpr u64 kSeed = 77;
    const u64 tag_space = ways + ways / 2 + 1;
    std::vector<u64> sparse_tags;
    if (sparse) {
        Rng tag_rng(2000 + ways);
        while (sparse_tags.size() < tag_space)
            sparse_tags.push_back(tag_rng.next());
    }
    auto cache = std::make_unique<SoupCache>(sets, ways, kind, kSeed);
    NaiveCache model(sets, ways, kind, kSeed);
    Rng rng(1000 + ways * 8 + static_cast<u64>(kind));
    const int ops = 6000 + static_cast<int>(ways) * 40;
    int evictions = 0;

    for (int op = 0; op < ops; ++op) {
        const std::size_t set = rng.nextBelow(sets);
        const u64 drawn = rng.nextBelow(tag_space);
        const u64 tag = sparse ? sparse_tags[drawn] : drawn;
        const long way = model.find(set, tag);
        const u64 roll = rng.nextBelow(1000);
        SCOPED_TRACE("op " + std::to_string(op));
        const u64 rare = roll < 970 ? 0 : 1 + rng.nextBelow(8 + ways / 2);
        if (roll < 350) {
            AssocLoc loc;
            u64 *got = cache->lookup(set, tag, &loc);
            ASSERT_EQ(got != nullptr, way >= 0);
            if (got != nullptr) {
                ASSERT_EQ(loc.way, static_cast<std::size_t>(way));
                ASSERT_EQ(*got, model.at(set, way).payload);
                model.touch(set, static_cast<std::size_t>(way));
            }
        } else if (roll < 430) {
            const u64 *got = cache->probe(set, tag);
            ASSERT_EQ(got != nullptr, way >= 0);
            if (got != nullptr) {
                ASSERT_EQ(*got, model.at(set, way).payload);
            }
        } else if (roll < 910) {
            if (way >= 0)
                continue;
            const u64 payload = rng.next();
            AssocLoc loc;
            const auto victim = cache->insert(set, tag, payload, &loc);
            const auto [want_way, want_victim] =
                model.insert(set, tag, payload);
            ASSERT_EQ(loc.way, want_way);
            ASSERT_EQ(cache->at(loc), payload);
            ASSERT_EQ(victim.has_value(), want_victim.has_value());
            if (victim) {
                ++evictions;
                ASSERT_EQ(victim->tag, want_victim->tag);
                ASSERT_EQ(victim->payload, want_victim->payload);
            }
        } else if (roll < 970) {
            ASSERT_EQ(cache->invalidate(set, tag), way >= 0);
            if (way >= 0)
                model.slot(set * ways + way).valid = false;
        } else if (rare <= 2) {
            const u64 mod = 8 + rng.nextBelow(16);
            const u64 rem = rng.nextBelow(mod);
            const PurgeResult result = cache->invalidateIf(
                [&](u64 t, const u64 &) { return t % mod == rem; });
            u64 invalidated = 0;
            for (std::size_t i = 0; i < model.capacity(); ++i) {
                if (model.slot(i).valid && model.slot(i).tag % mod == rem) {
                    model.slot(i).valid = false;
                    ++invalidated;
                }
            }
            ASSERT_EQ(result.scanned, model.capacity());
            ASSERT_EQ(result.invalidated, invalidated);
        } else if (rare == 3) {
            const std::size_t first = rng.nextBelow(sets + 1);
            const std::size_t count = rng.nextBelow(sets - first + 1);
            const u64 mod = 2 + rng.nextBelow(4);
            const u64 dropped = cache->invalidateInSets(
                first, count, [&](u64 t, const u64 &) { return t % mod == 0; });
            u64 invalidated = 0;
            for (std::size_t i = first * ways; i < (first + count) * ways;
                 ++i) {
                if (model.slot(i).valid && model.slot(i).tag % mod == 0) {
                    model.slot(i).valid = false;
                    ++invalidated;
                }
            }
            ASSERT_EQ(dropped, invalidated);
        } else if (rare <= 5) {
            const std::size_t live = model.occupancy();
            const std::size_t n = rng.nextBelow(live + 1);
            const auto dropped = cache->invalidateNth(n);
            ASSERT_EQ(dropped.has_value(), n < live);
            std::size_t seen = 0;
            for (std::size_t i = 0; i < model.capacity(); ++i) {
                if (model.slot(i).valid && seen++ == n) {
                    ASSERT_EQ(dropped->tag, model.slot(i).tag);
                    model.slot(i).valid = false;
                    break;
                }
            }
        } else if (rare == 6 && rng.nextBelow(4) == 0) {
            ASSERT_EQ(cache->invalidateAll(), model.occupancy());
            model.invalidateAll();
        } else {
            // Save, then carry on in a fresh cache loaded from it.
            const std::vector<u8> image = imageOf(*cache);
            ASSERT_EQ(image, model.image());
            cache = std::make_unique<SoupCache>(sets, ways, kind, kSeed);
            loadInto(*cache, image);
        }
        ASSERT_EQ(cache->occupancy(), model.occupancy());
    }
    EXPECT_EQ(imageOf(*cache), model.image());
    EXPECT_GT(evictions, ops / 25) << "the soup must exercise victims";
}

using SoupParam = std::tuple<std::size_t, PolicyKind>;

class AssocCacheSoupTest : public ::testing::TestWithParam<SoupParam>
{
};

/** ((sets, ways), policy) of a sparse-tag soup. */
using SparseSoupParam =
    std::tuple<std::pair<std::size_t, std::size_t>, PolicyKind>;

class AssocCacheSparseSoupTest
    : public ::testing::TestWithParam<SparseSoupParam>
{
};

} // namespace

TEST_P(AssocCacheSoupTest, MatchesNaiveModelStepByStep)
{
    // Two sets, so the index must tell a tag in one set from the same
    // tag in the other.
    const auto [ways, kind] = GetParam();
    runSoup(2, ways, kind, false);
}

INSTANTIATE_TEST_SUITE_P(
    WaysByPolicy, AssocCacheSoupTest,
    ::testing::Combine(::testing::Values(4, 16, 128, 512),
                       ::testing::Values(PolicyKind::Lru, PolicyKind::Fifo,
                                         PolicyKind::Random,
                                         PolicyKind::TreePlru)),
    [](const ::testing::TestParamInfo<SoupParam> &info) {
        return std::to_string(std::get<0>(info.param)) + "way_" +
               toString(std::get<1>(info.param));
    });

TEST_P(AssocCacheSparseSoupTest, MatchesNaiveModelStepByStep)
{
    const auto [geometry, kind] = GetParam();
    runSoup(geometry.first, geometry.second, kind, true);
}

INSTANTIATE_TEST_SUITE_P(
    SparseTags, AssocCacheSparseSoupTest,
    ::testing::Combine(
        ::testing::Values(std::pair<std::size_t, std::size_t>{1, 512},
                          std::pair<std::size_t, std::size_t>{2, 16}),
        ::testing::Values(PolicyKind::Lru, PolicyKind::Fifo,
                          PolicyKind::Random, PolicyKind::TreePlru)),
    [](const ::testing::TestParamInfo<SparseSoupParam> &info) {
        const auto &geometry = std::get<0>(info.param);
        return std::to_string(geometry.first) + "x" +
               std::to_string(geometry.second) + "way_" +
               toString(std::get<1>(info.param));
    });

/**
 * A loaded image may carry tied stamps. The recency list is rebuilt
 * by (stamp, way) descending, so its tail is min_element's pick: the
 * lowest way among the oldest.
 */
TEST(ReplacementTest, LoadedStampTiesBreakToLowestWay)
{
    for (std::size_t ways : {4u, 16u, 128u}) {
        for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Fifo}) {
            snap::SnapWriter w;
            w.putTag("stamps");
            w.put64(ways);
            for (std::size_t way = 0; way < ways; ++way)
                w.put64(way < 3 ? 9 : 4); // ways 3.. tie at the minimum
            w.put64(9);
            auto policy = makePolicy(kind, 1, ways);
            snap::SnapReader r(std::move(w).seal());
            policy->load(r);
            EXPECT_EQ(policy->victim(0), 3u) << ways << " ways";
            // The next oldest: way 4, or way 0 when 3 was the last.
            policy->fill(0, 3);
            EXPECT_EQ(policy->victim(0), ways > 4 ? 4u : 0u)
                << ways << " ways";
        }
    }
}

// ---------------------------------------------------------------------
// Data cache

/**
 * gtest lists a parameter it cannot print as a dump of its bytes, and
 * that dump is part of each test's listed name. The name is therefore
 * held inline, with no padding and no pointer, so the dump (and the
 * test name) is the same in every build and every run.
 */
struct CacheOrgParam
{
    CacheOrg org;
    char name[12];
};
static_assert(sizeof(CacheOrgParam) == 16);

class DataCacheOrgTest : public ::testing::TestWithParam<CacheOrgParam>
{
  protected:
    DataCacheConfig
    makeConfig(u32 ways = 1)
    {
        DataCacheConfig config;
        config.sizeBytes = 4 * 1024;
        config.lineBytes = 32;
        config.ways = ways;
        config.org = GetParam().org;
        return config;
    }

    std::optional<vm::PAddr>
    pa(vm::VAddr va)
    {
        // Identity-ish translation with a frame offset so virtual and
        // physical indexes differ.
        return vm::PAddr(va.raw() + 0x100000);
    }

    stats::Group root{"test"};
};

TEST_P(DataCacheOrgTest, MissThenHit)
{
    DataCache cache(makeConfig(), &root);
    const vm::VAddr va(0x5000);
    EXPECT_FALSE(cache.access(va, pa(va), false));
    cache.fill(va, *pa(va), false);
    EXPECT_TRUE(cache.access(va, pa(va), false));
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u);
}

TEST_P(DataCacheOrgTest, SameLineSharedAcrossWords)
{
    DataCache cache(makeConfig(), &root);
    const vm::VAddr va(0x5000);
    cache.fill(va, *pa(va), false);
    EXPECT_TRUE(cache.access(va + 8, pa(va + 8), false));
    EXPECT_FALSE(cache.access(va + 32, pa(va + 32), false));
}

TEST_P(DataCacheOrgTest, StoreMakesLineDirtyAndWritebackOnEvict)
{
    // Direct-mapped: two addresses one cache-size apart collide.
    DataCache cache(makeConfig(1), &root);
    const vm::VAddr a(0x0), b(0x1000); // 4KB apart = same index
    cache.fill(a, *pa(a), true); // dirty
    auto victim = cache.fill(b, *pa(b), false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(cache.writebacks.value(), 1u);
}

TEST_P(DataCacheOrgTest, CleanEvictionNeedsNoWriteback)
{
    DataCache cache(makeConfig(1), &root);
    const vm::VAddr a(0x0), b(0x1000);
    cache.fill(a, *pa(a), false);
    auto victim = cache.fill(b, *pa(b), false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_FALSE(victim->dirty);
}

TEST_P(DataCacheOrgTest, FlushPageRemovesAllItsLines)
{
    DataCache cache(makeConfig(2), &root);
    const vm::VAddr page(0x4000);
    for (u64 off = 0; off < vm::kPageBytes; off += 32)
        cache.fill(page + off, *pa(page + off), off == 0);
    EXPECT_EQ(cache.occupancy(), vm::kPageBytes / 32);

    const vm::Vpn vpn = vm::pageOf(page);
    const vm::Pfn pfn(pa(page)->raw() >> vm::kPageShift);
    const FlushResult result = cache.flushPage(vpn, pfn);
    EXPECT_EQ(result.lineAccesses, vm::kPageBytes / 32);
    EXPECT_EQ(result.invalidated, vm::kPageBytes / 32);
    EXPECT_EQ(result.writebacks, 1u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST_P(DataCacheOrgTest, FlushPageLeavesOtherPagesAlone)
{
    DataCache cache(makeConfig(2), &root);
    const vm::VAddr a(0x4000), b(0x8000);
    cache.fill(a, *pa(a), false);
    cache.fill(b, *pa(b), false);
    cache.flushPage(vm::pageOf(a), vm::Pfn(pa(a)->raw() >> vm::kPageShift));
    EXPECT_FALSE(cache.access(a, pa(a), false));
    EXPECT_TRUE(cache.access(b, pa(b), false));
}

TEST_P(DataCacheOrgTest, FlushAllEmptiesCache)
{
    DataCache cache(makeConfig(2), &root);
    for (u64 i = 0; i < 8; ++i) {
        const vm::VAddr va(i * 64);
        cache.fill(va, *pa(va), i % 2 == 0);
    }
    const FlushResult result = cache.flushAll();
    EXPECT_EQ(result.invalidated, 8u);
    EXPECT_EQ(result.writebacks, 4u);
    EXPECT_EQ(cache.occupancy(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Orgs, DataCacheOrgTest,
    ::testing::Values(CacheOrgParam{CacheOrg::Vivt, "vivt"},
                      CacheOrgParam{CacheOrg::Vipt, "vipt"},
                      CacheOrgParam{CacheOrg::Pipt, "pipt"}),
    [](const ::testing::TestParamInfo<CacheOrgParam> &info) {
        return info.param.name;
    });

TEST(DataCacheTest, VivtNeedsNoPhysicalAddress)
{
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vivt;
    DataCache cache(config, &root);
    EXPECT_FALSE(cache.access(vm::VAddr(0x100), std::nullopt, false));
}

TEST(DataCacheDeathTest, ViptRequiresPhysicalAddress)
{
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vipt;
    DataCache cache(config, &root);
    EXPECT_DEATH(cache.access(vm::VAddr(0x100), std::nullopt, false),
                 "physical address");
}

TEST(DataCacheTest, VivtSharingHitsAcrossDomainsAtSameAddress)
{
    // The paper's Section 2.2 point: in a single address space the
    // same virtual address means the same data, so one domain's cached
    // line serves another domain with no flush and no ASID.
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vivt;
    DataCache cache(config, &root);
    const vm::VAddr shared(0x9000);
    cache.fill(shared, vm::PAddr(0x59000), false); // domain A misses
    EXPECT_TRUE(cache.access(shared, std::nullopt, false)); // domain B hits
}

TEST(DataCacheTest, ContainsVirtualLineReflectsContents)
{
    stats::Group root("test");
    DataCacheConfig config;
    DataCache cache(config, &root);
    const vm::VAddr va(0x2000);
    EXPECT_FALSE(cache.containsVirtualLine(va.raw() / config.lineBytes));
    cache.fill(va, vm::PAddr(0x72000), false);
    EXPECT_TRUE(cache.containsVirtualLine(va.raw() / config.lineBytes));
}

TEST_P(DataCacheOrgTest, FlushOfEmptyPageStillCostsEveryLine)
{
    DataCache cache(makeConfig(2), &root);
    const vm::VAddr other(0x9000);
    cache.fill(other, *pa(other), true);
    const vm::VAddr page(0x4000);
    const FlushResult result = cache.flushPage(
        vm::pageOf(page), vm::Pfn(pa(page)->raw() >> vm::kPageShift));
    EXPECT_EQ(result.lineAccesses, 128u);
    EXPECT_EQ(result.invalidated, 0u);
    EXPECT_EQ(result.writebacks, 0u);
    EXPECT_EQ(cache.occupancy(), 1u);
    EXPECT_EQ(cache.flushedLines.value(), 0u);
}

TEST(DataCacheTest, ViptFlushDropsOnlyHighestWayOfAVirtualLine)
{
    // One virtual line filled under two physical lines (a remap the
    // flush has not caught up with) sits twice in its 2-way set. A
    // flush probes that virtual line once and drops the highest way
    // only; the lower, stale synonym survives.
    stats::Group root("test");
    DataCacheConfig config;
    config.org = CacheOrg::Vipt;
    config.ways = 2;
    DataCache cache(config, &root);
    const vm::VAddr va(0x4040);
    const vm::PAddr old_pa(0x71040), new_pa(0x93040);
    cache.fill(va, old_pa, false); // way 0
    cache.fill(va, new_pa, true);  // way 1
    ASSERT_EQ(cache.occupancy(), 2u);

    const FlushResult result = cache.flushPage(vm::pageOf(va), std::nullopt);
    EXPECT_EQ(result.lineAccesses, 128u);
    EXPECT_EQ(result.invalidated, 1u);
    EXPECT_EQ(result.writebacks, 1u);
    EXPECT_EQ(cache.occupancy(), 1u);
    EXPECT_TRUE(cache.access(va, old_pa, false));
    EXPECT_FALSE(cache.access(va, new_pa, false));
}

namespace
{

/**
 * The reference a set-range page flush must match: a probe for
 * every line of the page, dropping the exact tag on Vivt and Pipt,
 * and on Vipt the highest way whose stored virtual line matches.
 * Fills and lookups drive an AssocCache of the same geometry and
 * policy the way DataCache drives its own, so the two save to the
 * same image while they agree.
 */
class PerLineFlushCache
{
  public:
    struct Line
    {
        bool dirty = false;
        u64 vline = 0;
        u64 pline = 0;
    };

    explicit PerLineFlushCache(const DataCacheConfig &config)
        : config_(config),
          array_(config.sets(), config.ways, config.policy, config.seed)
    {
    }

    bool
    access(u64 vline, u64 pline, bool store)
    {
        Line *line = array_.lookup(indexOf(vline, pline), tagOf(vline, pline));
        if (line != nullptr && store)
            line->dirty = true;
        return line != nullptr;
    }

    std::optional<Line>
    fill(u64 vline, u64 pline, bool store)
    {
        auto victim = array_.insert(indexOf(vline, pline),
                                    tagOf(vline, pline),
                                    Line{store, vline, pline});
        if (!victim)
            return std::nullopt;
        return victim->payload;
    }

    FlushResult
    flushPage(u64 vpn, u64 pfn)
    {
        FlushResult result;
        const u64 lines_per_page = vm::kPageBytes / config_.lineBytes;
        for (u64 i = 0; i < lines_per_page; ++i) {
            ++result.lineAccesses;
            const u64 vline = vpn * lines_per_page + i;
            const u64 pline = pfn * lines_per_page + i;
            const std::size_t set = indexOf(vline, pline);
            std::optional<u64> tag;
            bool dirty = false;
            if (config_.org == CacheOrg::Vipt) {
                // Slots are visited in (set, way) order and a vline
                // lives in one set, so the last match is the highest
                // way of that set.
                array_.forEach([&](u64 t, const Line &line) {
                    if (line.vline == vline) {
                        tag = t;
                        dirty = line.dirty;
                    }
                });
            } else {
                const u64 t = tagOf(vline, pline);
                if (const Line *line = array_.probe(set, t)) {
                    tag = t;
                    dirty = line->dirty;
                }
            }
            if (tag) {
                array_.invalidate(set, *tag);
                ++result.invalidated;
                result.writebacks += dirty ? 1 : 0;
            }
        }
        return result;
    }

    std::size_t occupancy() const { return array_.occupancy(); }

    /** The bytes DataCache::save writes for the same state. */
    std::vector<u8>
    image() const
    {
        snap::SnapWriter w;
        w.putTag("dcache");
        array_.save(
            w, [](snap::SnapWriter &out, const u64 &tag) { out.put64(tag); },
            [](snap::SnapWriter &out, const Line &line) {
                out.putBool(line.dirty);
                out.put64(line.vline);
                out.put64(line.pline);
            });
        return std::move(w).seal();
    }

  private:
    std::size_t
    indexOf(u64 vline, u64 pline) const
    {
        const u64 line = config_.org == CacheOrg::Pipt ? pline : vline;
        return static_cast<std::size_t>(line & (config_.sets() - 1));
    }

    u64
    tagOf(u64 vline, u64 pline) const
    {
        return config_.org == CacheOrg::Vivt ? vline : pline;
    }

    DataCacheConfig config_;
    AssocCache<u64, Line> array_;
};

std::vector<u8>
imageOf(const DataCache &cache)
{
    snap::SnapWriter w;
    cache.save(w);
    return std::move(w).seal();
}

/** Held inline with no padding, so gtest's byte dump is stable. */
struct FlushDiffParam
{
    CacheOrg org;
    u32 ways;
    u64 sizeBytes;
};
static_assert(sizeof(FlushDiffParam) == 16);

class DataCacheFlushDiffTest : public ::testing::TestWithParam<FlushDiffParam>
{
};

} // namespace

/**
 * Seeded soup of accesses, fills, remaps and page flushes against the
 * per-line shadow. Every FlushResult must match, and after every
 * flush both caches must save the same image, so the surviving lines
 * agree way by way. Remaps give Vipt sets the same virtual line under
 * two physical lines and give Pipt frames two virtual pages; 24
 * pages overflow even the 64 KiB cache, so sets stay full.
 */
TEST_P(DataCacheFlushDiffTest, MatchesPerLineFlush)
{
    const FlushDiffParam param = GetParam();
    DataCacheConfig config;
    config.sizeBytes = param.sizeBytes;
    config.ways = param.ways;
    config.org = param.org;
    stats::Group root("test");
    DataCache cache(config, &root);
    PerLineFlushCache shadow(config);

    constexpr u64 kPages = 24;
    constexpr u64 kFrames = 40;
    constexpr u64 kFrameBase = 0x100;
    const u64 lines_per_page = vm::kPageBytes / config.lineBytes;
    Rng rng(0xF1u + param.ways * 7 + param.sizeBytes +
            static_cast<u64>(param.org));
    std::vector<u64> frame(kPages);
    for (u64 vpn = 0; vpn < kPages; ++vpn)
        frame[vpn] = kFrameBase + vpn;

    u64 flushes = 0;
    u64 invalidated = 0;
    u64 writebacks = 0;
    for (int op = 0; op < 6000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        const u64 vpn = rng.nextBelow(kPages);
        const u64 roll = rng.nextBelow(100);
        if (roll < 85) {
            // Hot lines at both ends of the page, so flushes find
            // several lines resident and the first and last sets of
            // the page's range are both in play.
            const u64 end = rng.nextBelow(3);
            const u64 line = end == 0   ? rng.nextBelow(8)
                             : end == 1 ? lines_per_page - 1 - rng.nextBelow(8)
                                        : rng.nextBelow(lines_per_page);
            const bool store = rng.nextBelow(3) == 0;
            const vm::VAddr va((vpn * lines_per_page + line) *
                               config.lineBytes);
            const vm::PAddr pa((frame[vpn] * lines_per_page + line) *
                               config.lineBytes);
            const bool hit = cache.access(va, pa, store);
            ASSERT_EQ(hit, shadow.access(va.raw() / config.lineBytes,
                                         pa.raw() / config.lineBytes,
                                         store));
            if (hit)
                continue;
            const auto victim = cache.fill(va, pa, store);
            const auto want = shadow.fill(va.raw() / config.lineBytes,
                                          pa.raw() / config.lineBytes, store);
            ASSERT_EQ(victim.has_value(), want.has_value());
            if (victim) {
                ASSERT_EQ(victim->vline, want->vline);
                ASSERT_EQ(victim->pline, want->pline);
                ASSERT_EQ(victim->dirty, want->dirty);
            }
        } else if (roll < 92) {
            // Remap, sometimes onto another page's frame.
            frame[vpn] = kFrameBase + rng.nextBelow(kFrames);
        } else {
            // Flush, now and then through a stale frame number, as a
            // deferred flush after a remap would.
            const u64 pfn = rng.nextBelow(4) == 0
                                ? kFrameBase + rng.nextBelow(kFrames)
                                : frame[vpn];
            const FlushResult got = cache.flushPage(vm::Vpn(vpn), vm::Pfn(pfn));
            const FlushResult want = shadow.flushPage(vpn, pfn);
            ASSERT_EQ(got.lineAccesses, lines_per_page);
            ASSERT_EQ(got.lineAccesses, want.lineAccesses);
            ASSERT_EQ(got.invalidated, want.invalidated);
            ASSERT_EQ(got.writebacks, want.writebacks);
            ASSERT_EQ(imageOf(cache), shadow.image());
            ++flushes;
            invalidated += got.invalidated;
            writebacks += got.writebacks;
        }
        ASSERT_EQ(cache.occupancy(), shadow.occupancy());
    }
    EXPECT_EQ(imageOf(cache), shadow.image());
    EXPECT_EQ(cache.flushedLines.value(), invalidated);
    EXPECT_GT(invalidated, flushes) << "flushes must find lines";
    EXPECT_GT(writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OrgWaysSize, DataCacheFlushDiffTest,
    ::testing::ValuesIn([] {
        std::vector<FlushDiffParam> params;
        for (CacheOrg org : {CacheOrg::Vivt, CacheOrg::Vipt, CacheOrg::Pipt})
            for (u32 ways : {1u, 2u, 4u})
                for (u64 size : {u64{4 * 1024}, u64{64 * 1024}})
                    params.push_back({org, ways, size});
        return params;
    }()),
    [](const ::testing::TestParamInfo<FlushDiffParam> &info) {
        return std::string(toString(info.param.org)) + "_" +
               std::to_string(info.param.ways) + "way_" +
               std::to_string(info.param.sizeBytes / 1024) + "KiB";
    });
