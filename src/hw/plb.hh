/**
 * @file
 * The Protection Lookaside Buffer (paper Section 3.2.1, Figure 1).
 *
 * The PLB caches protection mappings on a per-domain, per-page basis:
 * each entry grants one protection domain one set of access rights to
 * one protection block. It contains no translation information, which
 * is what lets it sit beside a virtually indexed, virtually tagged
 * cache and be probed in parallel with it.
 *
 * Protection blocks decouple protection granularity from translation
 * granularity (Section 4.3): an entry may cover a sub-page unit (e.g.
 * 128-byte lock granules, as on the IBM 801), a single translation
 * page, or a power-of-two aligned super-page spanning a whole segment.
 * Lookups probe the configured size classes from most specific to
 * least specific, so a per-page override installed alongside a
 * segment-wide entry wins.
 */

#ifndef SASOS_HW_PLB_HH
#define SASOS_HW_PLB_HH

#include <array>
#include <optional>
#include <vector>

#include "hw/assoc_cache.hh"
#include "hw/tlb.hh" // DomainId
#include "sim/random.hh"
#include "sim/stats.hh"
#include "vm/address.hh"
#include "vm/rights.hh"

namespace sasos::hw
{

/** PLB geometry. The paper's Figure 1 assumes fully associative. */
struct PlbConfig
{
    std::size_t sets = 1;
    std::size_t ways = 128;
    /** Unused by LRU; a field of every image's config section. */
    u64 seed = 1;
    /**
     * Protection block sizes (log2 bytes) this PLB supports, e.g.
     * {12} for page-grain only, {7, 12, 22} for 128-byte sub-page
     * blocks plus pages plus 4 MB super-pages.
     */
    std::vector<int> sizeShifts = {vm::kPageShift};

    /**
     * Clustered organization (ClusterPlb): number of per-cluster
     * banks the entries are sharded across by VPN range. 1 selects
     * the flat single-bank Plb (plb_clusters=).
     */
    unsigned clusters = 1;
    /** log2 pages per shard range: consecutive 2^rangeShift-page
     * ranges rotate across the banks (plb_range_shift=). */
    int rangeShift = 10;

    std::size_t entries() const { return sets * ways; }
};

/** What a successful PLB lookup yields. */
struct PlbMatch
{
    vm::Access rights = vm::Access::None;
    /** log2 bytes of the matching protection block. */
    int sizeShift = vm::kPageShift;
};

/** The protection lookaside buffer. */
class Plb
{
  public:
    Plb(const PlbConfig &config, stats::Group *parent);

    const PlbConfig &config() const { return config_; }

    /**
     * Probe for (domain, address). Probes each size class, most
     * specific first. @return the match, or nullopt on PLB miss.
     * A match with rights None is a hit (an explicit deny), not a
     * miss; the caller raises a protection fault without refilling.
     * @param loc filled with the hit entry's array location when
     *            non-null, for replayHit() on same-page runs.
     */
    std::optional<PlbMatch> lookup(DomainId domain, vm::VAddr va,
                                   AssocLoc *loc = nullptr);

    /** Lookup without stats/replacement side effects. */
    std::optional<PlbMatch> peek(DomainId domain, vm::VAddr va) const;

    /**
     * Replay a remembered hit exactly as lookup() would count and
     * touch it: one lookup, one hit, the replacement touch. The
     * caller guarantees the entry is still live (any insert or purge
     * since invalidates the remembered loc).
     */
    void
    replayHit(const AssocLoc &loc)
    {
        ++lookups;
        ++hits;
        array_.touch(loc);
    }

    /**
     * True when every configured size class covers at least a full
     * translation page, i.e. any match for an address holds for every
     * other address on the same page. Sub-page block classes break
     * that, so VPN-grain memoization is only sound when this holds.
     */
    bool
    pageUniform() const
    {
        return probeOrder_.front() >= vm::kPageShift;
    }

    /**
     * Install (or update in place) the entry granting `domain`
     * rights over the block of size 2^size_shift containing `va`.
     */
    void insert(DomainId domain, vm::VAddr va, int size_shift,
                vm::Access rights);

    /** What insertTracked() / evictOneTracked() displaced. */
    struct Evicted
    {
        DomainId domain = 0;
        /** Block number (va >> sizeShift); the VPN at page grain. */
        u64 block = 0;
        int sizeShift = 0;
    };

    /** insert() that reports what happened, for callers maintaining
     * derived occupancy indexes (the clustered PLB's L2 directory). */
    struct InsertOutcome
    {
        /** False when an existing entry was updated in place. */
        bool inserted = false;
        /** The valid entry the insert displaced, when any. */
        std::optional<Evicted> victim;
    };

    InsertOutcome insertTracked(DomainId domain, vm::VAddr va,
                                int size_shift, vm::Access rights);

    /**
     * Update the rights of the most specific entry covering
     * (domain, va), if one is cached. This is the paper's "changing a
     * domain's access rights to a page simply requires updating a PLB
     * entry". @return true if an entry was updated.
     */
    bool updateRights(DomainId domain, vm::VAddr va, vm::Access rights);

    /**
     * Drop the most specific entry covering (domain, va), using
     * indexed probes only (no scan). Used when a page-grain rights
     * change must shatter a cached super-page entry.
     * @return the size shift of the dropped entry, or nullopt.
     */
    std::optional<int> invalidateCovering(DomainId domain, vm::VAddr va);

    /**
     * Scan the whole PLB and set the rights of entries overlapping a
     * page range (for one domain, or all when nullopt). This is the
     * paper's "inspect each entry in the PLB, marking those ..."
     * operation (GC flip, checkpoint restrict).
     * Super-page entries that only partially overlap the range cannot
     * keep a single rights value, so they are invalidated instead.
     */
    PurgeResult updateRightsRange(std::optional<DomainId> domain,
                                  vm::Vpn first, u64 pages,
                                  vm::Access rights);

    /**
     * Scan the whole PLB and intersect the rights of entries
     * overlapping a page range with `mask` (all domains). Used when a
     * global restriction is placed on a page (paging exclusion):
     * intersection can only remove rights, so it is safe for every
     * domain regardless of what each entry held.
     */
    PurgeResult intersectRightsRange(vm::Vpn first, u64 pages,
                                     vm::Access mask);

    /**
     * Scan the whole PLB, dropping entries for one domain
     * (used on domain destruction). Reports scan size for costing.
     */
    PurgeResult purgeDomain(DomainId domain);

    /**
     * Scan the whole PLB, dropping entries overlapping a page range.
     * @param domain restrict to one domain, or nullopt for all
     *               domains (rights changed for every domain).
     * This models the paper's segment-detach worst case: "inspecting
     * all the entries in the PLB and eliminating those that match".
     */
    PurgeResult purgeRange(std::optional<DomainId> domain, vm::Vpn first,
                           u64 pages);

    /** Flash-invalidate. @return entries dropped. */
    u64 purgeAll();

    /**
     * Fault injection: drop one valid entry chosen by `rng`.
     * Models a spurious (soft-error / pressure) eviction; the entry
     * is simply refetched from kernel state on next use.
     * @return true if an entry was dropped (false when empty).
     */
    bool evictOne(Rng &rng);

    /** evictOne() that reports the dropped entry (nullopt when the
     * PLB was empty), for derived-index maintenance. */
    std::optional<Evicted> evictOneTracked(Rng &rng);

    /**
     * Count valid entries overlapping a page range (one domain, or
     * all when nullopt). A side-effect-free probe: no stats, no
     * replacement state. scale_test uses it to check the clustered
     * PLB's directory against its banks.
     */
    u64 countRange(std::optional<DomainId> domain, vm::Vpn first,
                   u64 pages) const;

    std::size_t occupancy() const { return array_.occupancy(); }
    std::size_t capacity() const { return array_.capacity(); }

    /** Visit valid entries: fn(domain, blockBaseVa, sizeShift, rights). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        array_.forEach([&](const Key &key, const vm::Access &rights) {
            fn(key.domain, vm::VAddr(key.block << key.sizeShift),
               key.sizeShift, rights);
        });
    }

    /** @name Snapshot hooks (array + replacement state; the stats
     * tree is captured by the owning system's group walk) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar lookups;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar insertions;
    stats::Scalar evictions;
    stats::Scalar updates;
    stats::Scalar purgedEntries;
    stats::Scalar purgeScans;
    stats::Scalar injectedEvictions;
    stats::Formula hitRate;
    /// @}

  private:
    struct Key
    {
        DomainId domain = 0;
        u64 block = 0;
        int sizeShift = 0;

        bool operator==(const Key &) const = default;
        u64
        hash() const
        {
            return hashField(
                hashField(hashField(0, block), domain),
                static_cast<u64>(sizeShift));
        }
    };

    std::size_t setOf(u64 block) const;
    Key keyFor(DomainId domain, vm::VAddr va, int size_shift) const;

    /** [first byte, last byte] covered by an entry. */
    static std::pair<u64, u64> blockSpan(const Key &key);

    PlbConfig config_;
    /** Size shifts sorted ascending (most specific first). */
    std::vector<int> probeOrder_;
    AssocCache<Key, vm::Access> array_;
    /**
     * Valid entries per size class. A configured class that holds no
     * entries (e.g. a super-page class the workload never fills)
     * cannot produce a hit, so lookup/peek skip its probe entirely.
     */
    std::array<u32, 64> shiftOccupancy_{};
};

} // namespace sasos::hw

#endif // SASOS_HW_PLB_HH
