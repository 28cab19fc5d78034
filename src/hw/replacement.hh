/**
 * @file
 * Replacement state for set-associative hardware structures.
 *
 * The paper prices two disciplines: LRU, the policy of every TLB,
 * PLB, key cache, data cache and of the page-group cache after Wilkes
 * & Sears, and Random, which models the PA-RISC's four PID registers
 * (no LRU information for the OS). One Replacement object serves a
 * whole structure and is held by value in AssocCache, so the probe
 * path inlines touch(). The structure asks for a victim only when
 * every way in the set is valid -- invalid ways are always filled
 * first by the caller.
 */

#ifndef SASOS_HW_REPLACEMENT_HH
#define SASOS_HW_REPLACEMENT_HH

#include <algorithm>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::hw
{

/**
 * Selectable replacement policies. The values are part of every
 * snapshot's config section (pgCache.policy), so they are pinned.
 */
enum class PolicyKind
{
    Lru = 0,
    Random = 2,
};

/**
 * Sets with at least this many ways get O(1) bookkeeping: a tag index
 * in AssocCache and a recency list in LRU. The fully associative TLBs,
 * PLBs and page-group/key caches (128-512 ways) need it; the
 * direct-mapped L1, the 4-way L2 and the 4-register PID file scan at
 * most four ways, and giving every data-cache line links and index
 * slots would cost memory and set-up time for nothing.
 */
constexpr std::size_t kWideSetWays = 16;

/**
 * Per-structure replacement state.
 *
 * LRU keeps per-way timestamps from a structure-wide clock; the
 * victim is the way with the smallest stamp (lowest way on a tie).
 * Stamps are the saved state. Sets of at least kWideSetWays ways also
 * keep an intrusive recency list (u16 way links, largest stamp at the
 * head) so the victim is the tail, read in O(1) instead of an O(ways)
 * scan. The list is always the ways sorted by (stamp, way), both
 * descending: every fill or touch takes a stamp above all others and
 * moves its way to the head, so the tail is exactly min_element's
 * choice. Narrow sets keep the plain scan and pay no link memory.
 *
 * Random draws a uniform victim from one seeded Rng and ignores hits.
 */
class Replacement
{
  public:
    /** @param seed only used by PolicyKind::Random. */
    Replacement(PolicyKind kind, std::size_t sets, std::size_t ways,
                u64 seed);

    /** Record a hit on (set, way). */
    void
    touch(std::size_t set, std::size_t way)
    {
        if (lru_)
            stamp(set, way);
    }

    /** Record a fill of (set, way). */
    void
    fill(std::size_t set, std::size_t way)
    {
        if (lru_)
            stamp(set, way);
    }

    /** Choose the way to evict in a full set. */
    std::size_t
    victim(std::size_t set)
    {
        if (!lru_)
            return static_cast<std::size_t>(rng_.nextBelow(ways_));
        if (listed_)
            return tail_[set];
        const u64 *base = &stamps_[set * ways_];
        return static_cast<std::size_t>(
            std::min_element(base, base + ways_) - base);
    }

    /** Forget all LRU history (e.g. after a full purge); Random's
     * stream carries on. */
    void reset();

    /** @name Snapshot hooks
     * Replacement history decides every future victim, so it is part
     * of the deterministic state; load() is called on an object built
     * with the same (kind, sets, ways, seed) and fails cleanly on a
     * shape mismatch or on LRU stamps its recency list cannot hold. */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

  private:
    /** Null link; also bounds the ways a listed set may have. */
    static constexpr u16 kNil = 0xFFFF;

    void
    stamp(std::size_t set, std::size_t way)
    {
        stamps_[set * ways_ + way] = ++clock_;
        if (listed_)
            moveToHead(set, way);
    }

    void
    moveToHead(std::size_t set, std::size_t way)
    {
        if (head_[set] == way)
            return;
        const std::size_t base = set * ways_;
        const u16 before = prev_[base + way];
        const u16 after = next_[base + way];
        // `way` is not the head, so it has a predecessor.
        next_[base + before] = after;
        if (after == kNil)
            tail_[set] = before;
        else
            prev_[base + after] = before;
        prev_[base + way] = kNil;
        next_[base + way] = head_[set];
        prev_[base + head_[set]] = static_cast<u16>(way);
        head_[set] = static_cast<u16>(way);
    }

    void buildWayOrder();
    void buildStampOrder();

    std::size_t sets_;
    std::size_t ways_;
    bool lru_;
    /** LRU on a wide set: the recency list below is in use. */
    bool listed_;
    /** @name LRU state; empty under Random */
    /// @{
    std::vector<u64> stamps_;
    u64 clock_ = 0;
    /// @}
    /** @name Recency list (listed_ only), way numbers within a set */
    /// @{
    std::vector<u16> prev_;
    std::vector<u16> next_;
    std::vector<u16> head_;
    std::vector<u16> tail_;
    /// @}
    /** Random's victim stream; unused under LRU. */
    Rng rng_;
};

} // namespace sasos::hw

#endif // SASOS_HW_REPLACEMENT_HH
