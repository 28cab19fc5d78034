/**
 * @file
 * First-level data cache model.
 *
 * Supports the three organizations the paper discusses:
 *
 *  - VIVT: virtually indexed, virtually tagged. The organization the
 *    paper pairs with the PLB -- no translation before or during the
 *    access; translation is needed only on misses and writebacks.
 *  - VIPT: virtually indexed, physically tagged. Needs the physical
 *    address for the tag compare (TLB in parallel with the index).
 *  - PIPT: physically indexed and tagged. Needs translation before
 *    the access.
 *
 * The model is functional (tags and dirty bits only, no data) and
 * reports events; the machine layer converts events to cycles and is
 * responsible for consulting the TLB where each organization needs a
 * physical address.
 */

#ifndef SASOS_HW_DATA_CACHE_HH
#define SASOS_HW_DATA_CACHE_HH

#include <optional>
#include <string>

#include "hw/assoc_cache.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "vm/address.hh"

namespace sasos::hw
{

/** Index/tag organization. */
enum class CacheOrg
{
    Vivt,
    Vipt,
    Pipt,
};

const char *toString(CacheOrg org);

/** Data cache geometry and behaviour. */
struct DataCacheConfig
{
    u64 sizeBytes = 64 * 1024;
    u32 lineBytes = 32;
    u32 ways = 1;
    CacheOrg org = CacheOrg::Vivt;
    /** Unused by LRU; a field of every image's config section. */
    u64 seed = 1;

    u64 lines() const { return sizeBytes / lineBytes; }
    u64 sets() const { return lines() / ways; }
};

/** A dirty line evicted by a fill; the machine must write it back. */
struct CacheVictim
{
    /** Virtual line number (valid for Vivt/Vipt). */
    u64 vline = 0;
    /** Physical line number (valid for Vipt/Pipt). */
    u64 pline = 0;
    bool dirty = false;
};

/** Outcome of a page flush. */
struct FlushResult
{
    /** Cache accesses performed (one per line in the page). */
    u64 lineAccesses = 0;
    /** Valid lines invalidated. */
    u64 invalidated = 0;
    /** Dirty lines that needed writing back. */
    u64 writebacks = 0;
};

/** Set-associative write-back data cache. */
class DataCache
{
  public:
    DataCache(const DataCacheConfig &config, stats::Group *parent,
              const std::string &name = "dcache");

    const DataCacheConfig &config() const { return config_; }

    /**
     * Look up a reference.
     * @param va     virtual address.
     * @param pa     physical address; required for Vipt/Pipt, ignored
     *               (may be nullopt) for Vivt.
     * @param store  true for stores (sets the dirty bit on hit).
     * @return true on hit.
     */
    bool access(vm::VAddr va, std::optional<vm::PAddr> pa, bool store);

    /**
     * Install the line for a missed reference (after translation).
     * @return the evicted dirty victim needing writeback, if any.
     */
    std::optional<CacheVictim> fill(vm::VAddr va, vm::PAddr pa, bool store);

    /**
     * Flush every line of a virtual page.
     *
     * Simulated cost: one cache access per line of the page (paper
     * Section 4.1.3), reported in FlushResult::lineAccesses whether
     * or not the line is present. Host cost: one pass over the sets
     * the page's lines index, min(lines per page, sets) of them,
     * rather than a probe per line.
     *
     * Vipt drops at most one line per virtual line, its highest way;
     * see DESIGN.md on the stale synonym this can leave.
     * @param pfn  required for Pipt (flush needs the translation);
     *             optional otherwise.
     */
    FlushResult flushPage(vm::Vpn vpn, std::optional<vm::Pfn> pfn);

    /** Invalidate everything, writing back dirty lines. */
    FlushResult flushAll();

    /**
     * Fault injection: evict one valid line chosen by `rng`, writing
     * it back if dirty (data is never lost, only displaced).
     * @return the victim, or nullopt when the cache is empty.
     */
    std::optional<CacheVictim> evictRandomLine(Rng &rng);

    /** Valid lines currently present. */
    std::size_t occupancy() const { return array_.occupancy(); }

    /** True if the given virtual line is present (for tests). */
    bool containsVirtualLine(u64 vline) const;

    /** @name Snapshot hooks */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar accesses;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar fills;
    stats::Scalar writebacks;
    stats::Scalar flushedLines;
    stats::Scalar injectedEvictions;
    stats::Formula hitRate;
    /// @}

  private:
    struct LineState
    {
        bool dirty = false;
        u64 vline = 0;
        u64 pline = 0;
    };

    u64 vlineOf(vm::VAddr va) const { return va.raw() >> lineShift_; }
    u64 plineOf(vm::PAddr pa) const { return pa.raw() >> lineShift_; }

    std::size_t indexOf(u64 vline, u64 pline) const;
    u64 tagOf(u64 vline, u64 pline) const;

    DataCacheConfig config_;
    /** log2(lineBytes) and sets - 1: both counts are powers of two,
     * so the per-reference line and set arithmetic needs no divide. */
    int lineShift_;
    u64 setMask_;
    AssocCache<u64, LineState> array_;
};

} // namespace sasos::hw

#endif // SASOS_HW_DATA_CACHE_HH
