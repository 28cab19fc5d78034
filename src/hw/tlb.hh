/**
 * @file
 * Translation lookaside buffer with the three personalities the paper
 * compares.
 *
 *  - Conventional: ASID-tagged entries carrying per-domain access
 *    rights (MIPS/Alpha style). Sharing a page across N domains
 *    replicates the entry N times (paper Section 3.1).
 *  - PageGroup: one entry per page for all domains, carrying the
 *    translation, the page-group number (AID) and the group-wide
 *    Rights field (PA-RISC style, Figure 2).
 *  - TranslationOnly: one entry per page with no protection content
 *    at all -- the second-level, off-critical-path TLB of the PLB
 *    system (Section 3.2.1).
 *  - Pkey: one entry per page for all domains, carrying the
 *    translation and a small protection-key id (MPK style); the
 *    rights themselves live in a per-domain key-permission register
 *    file (hw::KeyCache), not in the TLB.
 */

#ifndef SASOS_HW_TLB_HH
#define SASOS_HW_TLB_HH

#include <optional>

#include "hw/assoc_cache.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "vm/address.hh"
#include "vm/rights.hh"

namespace sasos::hw
{

/** Identifies a protection domain to the hardware (PD-ID / ASID). */
using DomainId = u16;

/** Identifies a page-group (the PA-RISC access identifier). */
using GroupId = u16;

/** AID 0 is the globally accessible page-group (paper Section 3.2.2). */
constexpr GroupId kGlobalGroup = 0;

/** Which fields a TLB carries and matches. */
enum class TlbKind
{
    Conventional,
    PageGroup,
    TranslationOnly,
    Pkey,
};

const char *toString(TlbKind kind);

/** One TLB entry; unused fields stay at their defaults. */
struct TlbEntry
{
    vm::Pfn pfn;
    /** Per-domain rights (Conventional) or group rights (PageGroup). */
    vm::Access rights = vm::Access::None;
    /** Matching ASID (Conventional only). */
    DomainId asid = 0;
    /** Page-group number (PageGroup) or protection-key id (Pkey). */
    GroupId aid = kGlobalGroup;
    bool dirty = false;
    bool referenced = false;
};

/** TLB geometry. */
struct TlbConfig
{
    TlbKind kind = TlbKind::TranslationOnly;
    std::size_t sets = 1;
    std::size_t ways = 64;
    /** Unused by LRU; a field of every image's config section. */
    u64 seed = 1;

    std::size_t entries() const { return sets * ways; }
};

/** Set-associative TLB. */
class Tlb
{
  public:
    Tlb(const TlbConfig &config, stats::Group *parent,
        const std::string &name = "tlb");

    const TlbConfig &config() const { return config_; }

    /**
     * Look up a page.
     * @param vpn   page to translate.
     * @param asid  current domain; only used by Conventional TLBs.
     * @param loc   filled with the hit's array location when non-null,
     *              for replayHit() on same-page runs.
     * @return entry on hit, null on miss. Counts stats.
     */
    TlbEntry *lookup(vm::Vpn vpn, DomainId asid = 0,
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

    /** Lookup without stats or replacement update (for tests). */
    const TlbEntry *peek(vm::Vpn vpn, DomainId asid = 0) const;

    /**
     * Install an entry (evicting as needed). Duplicate (vpn[,asid])
     * insertion is a caller bug.
     * @return the installed entry, valid until the next insert or
     *         purge.
     */
    TlbEntry &insert(vm::Vpn vpn, const TlbEntry &entry);

    /** Modify the entry for one page in place. @return found. */
    bool setRights(vm::Vpn vpn, vm::Access rights, DomainId asid = 0);

    /** Move a page to a new group (PageGroup kind). @return found. */
    bool setGroup(vm::Vpn vpn, GroupId aid, vm::Access rights);

    /** Drop all entries for a page (all ASIDs). @return dropped. */
    u64 purgePage(vm::Vpn vpn);

    /** Drop the entry for (page, asid). @return true if present. */
    bool purgePageAsid(vm::Vpn vpn, DomainId asid);

    /** Drop every entry tagged with an ASID. Scans the whole TLB. */
    PurgeResult purgeAsid(DomainId asid);

    /**
     * Scan the TLB, dropping entries for pages in [first,
     * first+pages), optionally restricted to one ASID.
     */
    PurgeResult purgeRange(std::optional<DomainId> asid, vm::Vpn first,
                           u64 pages);

    /** Flash-invalidate. @return entries dropped. */
    u64 purgeAll();

    /**
     * Fault injection: drop one valid entry chosen by `rng`; refilled
     * from kernel page tables on next touch.
     * @return true if an entry was dropped (false when empty).
     */
    bool evictOne(Rng &rng);

    std::size_t occupancy() const { return array_.occupancy(); }
    std::size_t capacity() const { return array_.capacity(); }

    /** Visit all valid entries: fn(vpn, asid, entry&). */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        array_.forEach([&](const Key &key, TlbEntry &entry) {
            fn(vm::Vpn(key.vpn), key.asid, entry);
        });
    }

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
    stats::Scalar purgedEntries;
    stats::Scalar injectedEvictions;
    stats::Formula hitRate;
    /// @}

  private:
    struct Key
    {
        u64 vpn = 0;
        DomainId asid = 0;

        bool operator==(const Key &) const = default;
        u64 hash() const { return hashField(hashField(0, vpn), asid); }
    };

    std::size_t setOf(vm::Vpn vpn) const;
    Key keyOf(vm::Vpn vpn, DomainId asid) const;

    TlbConfig config_;
    AssocCache<Key, TlbEntry> array_;
};

} // namespace sasos::hw

#endif // SASOS_HW_TLB_HH
