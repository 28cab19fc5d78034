/**
 * @file
 * The cache of permitted page-groups (paper Section 3.2.2, Figure 2).
 *
 * In the PA-RISC the executing domain's accessible page-groups live
 * in four PID registers. The paper's page-group implementation
 * replaces them with an LRU cache of page-groups (after Wilkes &
 * Sears); this class models both: configure four entries with Random
 * replacement for the register file (no LRU information for the OS),
 * or more entries with Lru for the cache variant.
 *
 * Each entry carries the PID's write-disable (D) bit, which denies
 * stores to the whole group regardless of the TLB Rights field.
 * Group 0 is globally accessible and always hits.
 */

#ifndef SASOS_HW_PAGEGROUP_CACHE_HH
#define SASOS_HW_PAGEGROUP_CACHE_HH

#include <optional>
#include <span>

#include "hw/assoc_cache.hh"
#include "hw/tlb.hh" // GroupId
#include "sim/random.hh"
#include "sim/stats.hh"

namespace sasos::hw
{

/** Geometry of the page-group cache. */
struct PageGroupCacheConfig
{
    std::size_t entries = 16;
    PolicyKind policy = PolicyKind::Lru;
    u64 seed = 1;
};

/** Result of a page-group probe. */
struct PidMatch
{
    /** Stores to the group are denied when set (the D bit). */
    bool writeDisable = false;
};

/** Fully associative cache of the current domain's page-groups. */
class PageGroupCache
{
  public:
    PageGroupCache(const PageGroupCacheConfig &config,
                   stats::Group *parent);

    const PageGroupCacheConfig &config() const { return config_; }

    /**
     * Check whether the current domain may access a group.
     * Group 0 always matches with writes enabled.
     * @param loc filled with the hit's array location when non-null
     *            (left untouched for group-0 hits, which never probe
     *            the array), for replayHit() on same-page runs.
     */
    std::optional<PidMatch> lookup(GroupId aid, AssocLoc *loc = nullptr);

    /**
     * Replay a remembered lookup(aid) hit exactly as lookup() would
     * count and touch it: one lookup, then a global hit for group 0
     * or a hit plus the replacement touch of `loc`. The caller
     * guarantees the entry is still live (any insert or purge since
     * invalidates the remembered loc).
     */
    void
    replayHit(GroupId aid, const AssocLoc &loc)
    {
        ++lookups;
        if (aid == kGlobalGroup) {
            ++globalHits;
            return;
        }
        ++hits;
        array_.touch(loc);
    }

    /** Probe without stats/replacement updates. */
    std::optional<PidMatch> peek(GroupId aid) const;

    /** Install a group (evicting LRU or random as configured). */
    void insert(GroupId aid, bool write_disable = false);

    /** Drop one group (segment detach). @return true if present. */
    bool remove(GroupId aid);

    /** Flash-invalidate (domain switch). @return entries dropped. */
    u64 purgeAll();

    /**
     * Explicitly load a domain's groups (eager reload on domain
     * switch, Section 4.1.4). Loads up to capacity, in order.
     * @return number of entries loaded.
     */
    u64 loadAll(std::span<const GroupId> groups);

    /**
     * Fault injection: drop one cached group chosen by `rng`; the
     * kernel revalidates and reloads it on the next miss.
     * @return true if an entry was dropped (false when empty).
     */
    bool evictOne(Rng &rng);

    std::size_t occupancy() const { return array_.occupancy(); }
    std::size_t capacity() const { return array_.capacity(); }

    /** @name Snapshot hooks */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar lookups;
    stats::Scalar hits;
    stats::Scalar globalHits;
    stats::Scalar misses;
    stats::Scalar insertions;
    stats::Scalar evictions;
    stats::Scalar injectedEvictions;
    /// @}

  private:
    PageGroupCacheConfig config_;
    AssocCache<GroupId, PidMatch> array_;
};

} // namespace sasos::hw

#endif // SASOS_HW_PAGEGROUP_CACHE_HH
