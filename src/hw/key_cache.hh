/**
 * @file
 * The per-domain key-permission register file of the protection-key
 * model (MPK style; Achermann et al., "Separating Translation from
 * Protection in Address Spaces with Dynamic Remapping").
 *
 * Pages carry a small key id in their TLB entry; the rights a domain
 * holds for a key live here, in a bounded file of (domain, key) ->
 * rights registers. A protection change flips the one register for
 * the affected (domain, key) pair instead of walking per-page state --
 * the decoupling of protection from translation the paper argues for
 * in Section 4, taken to its register-file extreme.
 *
 * Entries survive domain switches (the file is tagged by domain, like
 * ASIDs), so a switch costs one register write, not a flush. The file
 * is bounded: when the kernel recycles a key id, every register and
 * TLB entry carrying the retired key must be dropped on this cache's
 * side (KeyCache::invalidateKey) before the id is rebound.
 */

#ifndef SASOS_HW_KEY_CACHE_HH
#define SASOS_HW_KEY_CACHE_HH

#include <optional>

#include "hw/assoc_cache.hh"
#include "hw/tlb.hh" // DomainId, GroupId
#include "sim/random.hh"
#include "sim/stats.hh"
#include "vm/rights.hh"

namespace sasos::hw
{

/** Identifies a protection key (carried in TlbEntry::aid). */
using KeyId = GroupId;

/** Geometry of the key-permission register file. */
struct KeyCacheConfig
{
    std::size_t entries = 64;
    /** Unused by LRU; a field of every image's config section. */
    u64 seed = 1;
};

/** One key-permission register's payload. */
struct KeyPerm
{
    vm::Access rights = vm::Access::None;
};

/** Fully associative file of (domain, key) -> rights registers. */
class KeyCache
{
  public:
    KeyCache(const KeyCacheConfig &config, stats::Group *parent);

    const KeyCacheConfig &config() const { return config_; }

    /**
     * Look up the rights a domain holds for a key.
     * @param loc filled with the hit's array location when non-null,
     *            for replayHit() on same-page runs.
     * @return rights on hit, nullopt on miss. Counts stats.
     */
    std::optional<vm::Access> lookup(DomainId domain, KeyId key,
                                     AssocLoc *loc = nullptr);

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

    /** Probe without stats/replacement updates. */
    std::optional<vm::Access> peek(DomainId domain, KeyId key) const;

    /** Install a register (evicting as configured). */
    void insert(DomainId domain, KeyId key, vm::Access rights);

    /**
     * The headline operation: flip one cached register's rights in
     * place, without touching any per-page state.
     * @return true if the register was cached (and flipped).
     */
    bool updateRights(DomainId domain, KeyId key, vm::Access rights);

    /** Drop one (domain, key) register. @return true if present. */
    bool remove(DomainId domain, KeyId key);

    /** Drop every domain's register for a key (key recycling).
     * @return scan/invalidate tally for cost charging. */
    PurgeResult invalidateKey(KeyId key);

    /** Drop every register a domain holds (domain destruction). */
    PurgeResult purgeDomain(DomainId domain);

    /** Flash-invalidate. @return entries dropped. */
    u64 purgeAll();

    /**
     * Fault injection: drop one register chosen by `rng`; rights are
     * rederived from canonical state on the next miss.
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
    stats::Scalar misses;
    stats::Scalar insertions;
    stats::Scalar evictions;
    stats::Scalar flips;
    stats::Scalar injectedEvictions;
    /// @}

  private:
    struct Key
    {
        DomainId domain = 0;
        KeyId key = 0;

        bool operator==(const Key &) const = default;
        u64 hash() const { return hashField(hashField(0, domain), key); }
    };

    KeyCacheConfig config_;
    AssocCache<Key, KeyPerm> array_;
};

} // namespace sasos::hw

#endif // SASOS_HW_KEY_CACHE_HH
