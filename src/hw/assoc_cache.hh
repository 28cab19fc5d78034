/**
 * @file
 * A generic set-associative tag store.
 *
 * This is the common machinery behind every lookup structure in the
 * simulator: the data cache tag array, the TLB, the PLB and the
 * page-group cache. Callers map their key to (set index, tag); the
 * store handles validity, replacement and scans.
 *
 * Storage is structure-of-arrays: the valid bits, tags and payloads
 * live in three parallel vectors, so the probe loop -- the simulator's
 * single hottest scan -- walks a dense byte array and a dense tag
 * array instead of striding over padded (valid, tag, payload) records.
 * The external API (lookup/probe/insert/purge scans) and the snapshot
 * byte format are unchanged from the AoS layout.
 *
 * Sets of at least kWideSetWays ways (the fully associative TLBs, PLBs
 * and page-group/key caches) also keep an open-addressing index from
 * (set, tag) to slot number, so lookup, probe, insert and invalidate
 * cost O(1) host time instead of a scan of up to 512 tags, plus a
 * per-set valid count so a full set goes straight to its victim.
 * The index is sparse -- kIndexSlack buckets per slot -- because a
 * refill walks it four times and misses on random keys dominate
 * when a workload overflows the structure's reach. It holds slot
 * numbers only; tags stay in the SoA lane, and deletion uses backward
 * shift, so no tombstones build up. Narrow sets keep the plain linear
 * probe, which is also the reference the index is tested against.
 * Neither changes any simulated result.
 *
 * Purge operations report how many entries were *scanned* as well as
 * how many were invalidated, because the paper's cost arguments
 * distinguish a full inspect-every-entry pass (PLB detach) from an
 * indexed invalidate (TLB purge of one page). Every scan-style purge
 * is one pass of invalidateInSets() over a contiguous set range: the
 * whole structure for invalidateIf(), or only the sets a page can
 * occupy for a page flush.
 */

#ifndef SASOS_HW_ASSOC_CACHE_HH
#define SASOS_HW_ASSOC_CACHE_HH

#include <algorithm>
#include <bit>
#include <optional>
#include <type_traits>
#include <vector>

#include "hw/replacement.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::hw
{

/**
 * Fold one field into a tag hash. Keys with several fields hash them
 * one by one through this, never as raw bytes, so struct padding
 * cannot leak into the index.
 */
constexpr u64
hashField(u64 hash, u64 field)
{
    return (hash ^ field) * 0x9E3779B97F4A7C15ull;
}

/** Result of a scan-style purge. */
struct PurgeResult
{
    u64 scanned = 0;
    u64 invalidated = 0;
};

/**
 * Location of a lookup hit. Callers that coalesce consecutive
 * references to the same entry remember the location and replay the
 * replacement touch through touch() without re-scanning the set.
 */
struct AssocLoc
{
    std::size_t set = 0;
    std::size_t way = 0;
};

/**
 * Set-associative storage of (Tag -> Payload).
 *
 * @tparam Tag      equality-comparable lookup key (within a set); an
 *                  integer, or a struct with a `u64 hash() const`.
 * @tparam Payload  per-entry data.
 */
template <typename Tag, typename Payload>
class AssocCache
{
  public:
    /** An evicted valid entry, reported to the caller on insert. */
    struct Victim
    {
        Tag tag{};
        Payload payload{};
    };

    AssocCache(std::size_t sets, std::size_t ways, PolicyKind policy,
               u64 seed = 1)
        : sets_(sets), ways_(ways),
          valid_(sets * ways, 0),
          tags_(sets * ways),
          payloads_(sets * ways),
          policy_(makePolicy(policy, sets, ways, seed)),
          needsTouch_(policy_->needsTouch()),
          indexed_(ways >= kWideSetWays)
    {
        SASOS_ASSERT(sets > 0 && ways > 0, "degenerate cache geometry");
        if (indexed_) {
            SASOS_ASSERT(valid_.size() < kEmpty, "cache too large to index");
            // Only host-side slot numbers live here, so the size moves
            // no simulated result.
            const std::size_t buckets =
                std::bit_ceil(kIndexSlack * valid_.size());
            index_.assign(buckets, kEmpty);
            indexShift_ = 64 - std::countr_zero(buckets);
            setValid_.assign(sets, 0);
        }
    }

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }
    std::size_t capacity() const { return valid_.size(); }

    /** Valid entries currently stored. */
    std::size_t occupancy() const { return occupancy_; }

    /**
     * Find and touch (updates replacement state). Null on miss.
     * @param loc filled with the hit's (set, way) when non-null, so
     *            the caller can replay the touch on a coalesced
     *            re-reference.
     */
    Payload *
    lookup(std::size_t set, const Tag &tag, AssocLoc *loc = nullptr)
    {
        const std::size_t way = findWay(set, tag);
        if (way == kNoWay)
            return nullptr;
        if (needsTouch_)
            policy_->touch(set, way);
        if (loc != nullptr)
            *loc = {set, way};
        return &payloads_[set * ways_ + way];
    }

    /** Find without touching replacement state. Null on miss. */
    Payload *
    probe(std::size_t set, const Tag &tag)
    {
        const std::size_t way = findWay(set, tag);
        return way == kNoWay ? nullptr : &payloads_[set * ways_ + way];
    }

    const Payload *
    probe(std::size_t set, const Tag &tag) const
    {
        return const_cast<AssocCache *>(this)->probe(set, tag);
    }

    /**
     * Replay the replacement touch of a remembered hit, exactly as
     * lookup() would have performed it. The caller guarantees the
     * entry at `loc` is still the one it hit (nothing was inserted or
     * invalidated since).
     */
    void
    touch(const AssocLoc &loc)
    {
        if (needsTouch_)
            policy_->touch(loc.set, loc.way);
    }

    /**
     * Insert, evicting if the set is full.
     * Inserting a tag that is already present is a caller bug
     * (use lookup + modify payload instead) and panics.
     * @param loc filled with where the new entry went when non-null;
     *            at() reads it back without a re-probe.
     * @return the evicted valid entry, if any.
     */
    std::optional<Victim>
    insert(std::size_t set, const Tag &tag, Payload payload,
           AssocLoc *loc = nullptr)
    {
        SASOS_ASSERT(findWay(set, tag) == kNoWay,
                     "inserting duplicate tag");
        const std::size_t base = set * ways_;
        std::optional<Victim> victim;
        // Prefer the lowest invalid way; a full wide set has none.
        std::size_t way = indexed_ && setValid_[set] == ways_ ? ways_ : 0;
        while (way < ways_ && valid_[base + way])
            ++way;
        if (way < ways_) {
            valid_[base + way] = 1;
            ++occupancy_;
            if (indexed_)
                ++setValid_[set];
        } else {
            way = policy_->victim(set);
            SASOS_ASSERT(way < ways_, "policy returned bad way");
            if (indexed_)
                indexErase(set, base + way);
            victim = Victim{tags_[base + way],
                            std::move(payloads_[base + way])};
        }
        tags_[base + way] = tag;
        payloads_[base + way] = std::move(payload);
        if (indexed_)
            indexInsert(set, base + way);
        policy_->fill(set, way);
        if (loc != nullptr)
            *loc = {set, way};
        return victim;
    }

    /** The entry at a location from lookup() or insert(). */
    Payload &
    at(const AssocLoc &loc)
    {
        return payloads_[loc.set * ways_ + loc.way];
    }

    /** Invalidate one entry if present. @return true if it existed. */
    bool
    invalidate(std::size_t set, const Tag &tag)
    {
        const std::size_t way = findWay(set, tag);
        if (way == kNoWay)
            return false;
        drop(set * ways_ + way);
        return true;
    }

    /**
     * Scan every entry; invalidate those matching `pred(tag, payload)`.
     * Models the "inspect all the entries in the PLB" cost the paper
     * describes for segment detach.
     */
    template <typename Pred>
    PurgeResult
    invalidateIf(Pred pred)
    {
        // Hardware inspects every slot of the structure, valid or
        // not; the scan cost is the capacity, which is what the
        // paper's "inspecting all the entries" worst case charges.
        return {capacity(), invalidateInSets(0, sets_, pred)};
    }

    /**
     * Invalidate the valid entries of sets [first_set, first_set +
     * count) that match `pred(tag, payload)`, in one dense pass over
     * their valid lane. Slots are visited from the last of the range
     * down to the first, so a set's higher ways are seen before its
     * lower ones: a pred that accepts only the first match of a key
     * drops the highest way holding it. Replacement state is left
     * alone, like the other purges. @return entries invalidated.
     */
    template <typename Pred>
    u64
    invalidateInSets(std::size_t first_set, std::size_t count, Pred pred)
    {
        SASOS_ASSERT(first_set <= sets_ && count <= sets_ - first_set,
                     "set range ", first_set, "+", count, " out of range");
        u64 invalidated = 0;
        const std::size_t begin = first_set * ways_;
        for (std::size_t i = (first_set + count) * ways_; i-- > begin;) {
            if (valid_[i] && pred(tags_[i], payloads_[i])) {
                drop(i);
                ++invalidated;
            }
        }
        return invalidated;
    }

    /**
     * Invalidate the n-th valid entry in scan order (n < occupancy).
     * This is the fault injector's handle for a spurious eviction: the
     * victim index comes from the campaign Rng, so which entry dies is
     * seeded, not host-dependent. Replacement state is left alone,
     * like the purge paths. @return the dropped entry, or nullopt if
     * n is out of range.
     */
    std::optional<Victim>
    invalidateNth(std::size_t n)
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (!valid_[i])
                continue;
            if (n-- == 0) {
                drop(i);
                return Victim{tags_[i], payloads_[i]};
            }
        }
        return std::nullopt;
    }

    /** Flash-invalidate everything. @return entries dropped. */
    u64
    invalidateAll()
    {
        u64 dropped = 0;
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (valid_[i]) {
                valid_[i] = 0;
                ++dropped;
            }
        }
        occupancy_ = 0;
        if (indexed_ && dropped != 0) {
            std::fill(index_.begin(), index_.end(), kEmpty);
            std::fill(setValid_.begin(), setValid_.end(), 0);
        }
        policy_->reset();
        return dropped;
    }

    /** Visit every valid entry: fn(tag, payload&). */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (valid_[i])
                fn(tags_[i], payloads_[i]);
        }
    }

    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (valid_[i])
                fn(tags_[i], payloads_[i]);
        }
    }

    /**
     * @name Snapshot hooks
     *
     * Tags and payloads are structs with padding, so the owner
     * supplies field-by-field encoders/decoders:
     *
     *   save_tag(w, tag) / save_payload(w, payload)
     *   load_tag(r) -> Tag / load_payload(r) -> Payload
     *
     * Slots are walked in (set, way) order, so the image is byte
     * stable (and identical to the pre-SoA layout's image). load()
     * runs against a cache constructed with the same geometry and
     * validates it: the set/way shape must match, and a set may not
     * carry duplicate valid tags (insert() would treat that as a
     * caller bug and abort; for untrusted input it must be a clean
     * fatal instead). Wide sets find duplicates while rebuilding the
     * index, narrow ones by a pairwise scan. Occupancy is recomputed,
     * and the replacement policy restores its own history afterwards.
     */
    /// @{
    template <typename SaveTag, typename SavePayload>
    void
    save(snap::SnapWriter &w, SaveTag save_tag,
         SavePayload save_payload) const
    {
        w.putTag("assoc");
        w.put64(sets_);
        w.put64(ways_);
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            w.putBool(valid_[i] != 0);
            if (valid_[i]) {
                save_tag(w, tags_[i]);
                save_payload(w, payloads_[i]);
            }
        }
        policy_->save(w);
    }

    template <typename LoadTag, typename LoadPayload>
    void
    load(snap::SnapReader &r, LoadTag load_tag, LoadPayload load_payload)
    {
        r.expectTag("assoc");
        const u64 sets = r.get64();
        const u64 ways = r.get64();
        if (sets != sets_ || ways != ways_)
            SASOS_FATAL("corrupt snapshot: cache geometry ", sets, "x",
                        ways, " does not match this build's ", sets_,
                        "x", ways_);
        occupancy_ = 0;
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            valid_[i] = r.getBool() ? 1 : 0;
            if (valid_[i]) {
                tags_[i] = load_tag(r);
                payloads_[i] = load_payload(r);
                ++occupancy_;
            } else {
                tags_[i] = Tag{};
                payloads_[i] = Payload{};
            }
        }
        if (indexed_)
            rebuildIndex();
        else
            rejectDuplicateTags();
        policy_->load(r);
    }
    /// @}

  private:
    static constexpr std::size_t kNoWay = static_cast<std::size_t>(-1);
    /** An unused index bucket. */
    static constexpr u32 kEmpty = static_cast<u32>(-1);
    /** Index buckets per slot: a refill walks the index four times
     * (duplicate check, miss, erase, insert), and at this load a
     * random-key walk averages about one bucket. */
    static constexpr std::size_t kIndexSlack = 16;

    /** The tight probe: the index on wide sets, else a dense valid/tag
     * scan; no payload traffic either way. */
    std::size_t
    findWay(std::size_t set, const Tag &tag) const
    {
        SASOS_ASSERT(set < sets_, "set index ", set, " out of range");
        const std::size_t base = set * ways_;
        if (indexed_) {
            for (std::size_t b = bucketOf(set, tag);;
                 b = (b + 1) & (index_.size() - 1)) {
                const u32 slot = index_[b];
                if (slot == kEmpty)
                    return kNoWay;
                if (slot - base < ways_ && tags_[slot] == tag)
                    return slot - base;
            }
        }
        const u8 *valid = valid_.data() + base;
        const Tag *tags = tags_.data() + base;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (valid[way] && tags[way] == tag)
                return way;
        }
        return kNoWay;
    }

    /** Clear one valid slot's bit, keeping counts and index in step. */
    void
    drop(std::size_t slot)
    {
        valid_[slot] = 0;
        --occupancy_;
        if (indexed_) {
            const std::size_t set = setOfSlot(slot);
            --setValid_[set];
            indexErase(set, slot);
        }
    }

    /** @name Tag index (wide sets only) */
    /// @{
    static u64
    tagHash(const Tag &tag)
    {
        if constexpr (std::is_integral_v<Tag>)
            return hashField(0, static_cast<u64>(tag));
        else
            return tag.hash();
    }

    /** Home bucket: Fibonacci hashing of the (set, tag) pair. */
    std::size_t
    bucketOf(std::size_t set, const Tag &tag) const
    {
        return static_cast<std::size_t>(
            hashField(tagHash(tag), set) >> indexShift_);
    }

    /** The set a slot belongs to; fully associative needs no divide. */
    std::size_t
    setOfSlot(std::size_t slot) const
    {
        return sets_ == 1 ? 0 : slot / ways_;
    }

    /** Index a valid slot of `set` whose tag is not indexed yet. */
    void
    indexInsert(std::size_t set, std::size_t slot)
    {
        std::size_t b = bucketOf(set, tags_[slot]);
        while (index_[b] != kEmpty)
            b = (b + 1) & (index_.size() - 1);
        index_[b] = static_cast<u32>(slot);
    }

    /**
     * Unindex a slot of `set` while tags_[slot] still holds its tag.
     * Backward shift: each later entry of the probe run whose home
     * bucket does not lie cyclically in (hole, entry] moves back into
     * the hole.
     */
    void
    indexErase(std::size_t set, std::size_t slot)
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t hole = bucketOf(set, tags_[slot]);
        while (index_[hole] != slot)
            hole = (hole + 1) & mask;
        for (std::size_t b = (hole + 1) & mask; index_[b] != kEmpty;
             b = (b + 1) & mask) {
            const u32 moved = index_[b];
            const std::size_t home =
                bucketOf(setOfSlot(moved), tags_[moved]);
            if (((b - home) & mask) >= ((b - hole) & mask)) {
                index_[hole] = moved;
                hole = b;
            }
        }
        index_[hole] = kEmpty;
    }

    /** Re-index every valid slot after load(), rejecting a set that
     * carries the same tag twice. */
    void
    rebuildIndex()
    {
        std::fill(index_.begin(), index_.end(), kEmpty);
        std::fill(setValid_.begin(), setValid_.end(), 0);
        for (std::size_t slot = 0; slot < valid_.size(); ++slot) {
            if (!valid_[slot])
                continue;
            const std::size_t set = setOfSlot(slot);
            if (findWay(set, tags_[slot]) != kNoWay)
                SASOS_FATAL("corrupt snapshot: duplicate tag in cache "
                            "set ",
                            set);
            indexInsert(set, slot);
            ++setValid_[set];
        }
    }
    /// @}

    /** Pairwise duplicate check of a loaded narrow-set image. */
    void
    rejectDuplicateTags() const
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            const std::size_t base = set * ways_;
            for (std::size_t a = 0; a < ways_; ++a) {
                if (!valid_[base + a])
                    continue;
                for (std::size_t b = a + 1; b < ways_; ++b) {
                    if (valid_[base + b] &&
                        tags_[base + a] == tags_[base + b])
                        SASOS_FATAL("corrupt snapshot: duplicate tag "
                                    "in cache set ",
                                    set);
                }
            }
        }
    }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<u8> valid_;
    std::vector<Tag> tags_;
    std::vector<Payload> payloads_;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::size_t occupancy_ = 0;
    /** Cached policy_->needsTouch(): lookup skips the virtual touch
     * call entirely for FIFO/Random structures. */
    bool needsTouch_;
    /** ways_ >= kWideSetWays: the members below are in use. */
    bool indexed_;
    /** Open-addressing (set, tag) -> slot table; kEmpty when unused. */
    std::vector<u32> index_;
    /** 64 - log2(index_.size()), for the Fibonacci hash. */
    int indexShift_ = 64;
    /** Valid ways per set. */
    std::vector<u32> setValid_;
};

} // namespace sasos::hw

#endif // SASOS_HW_ASSOC_CACHE_HH
