#include "hw/data_cache.hh"

#include <algorithm>
#include <array>
#include <bit>

namespace sasos::hw
{

const char *
toString(CacheOrg org)
{
    switch (org) {
      case CacheOrg::Vivt:
        return "vivt";
      case CacheOrg::Vipt:
        return "vipt";
      case CacheOrg::Pipt:
        return "pipt";
    }
    return "?";
}

DataCache::DataCache(const DataCacheConfig &config, stats::Group *parent,
                     const std::string &name)
    : statsGroup(parent, name),
      accesses(&statsGroup, "accesses", "lookups performed"),
      hits(&statsGroup, "hits", "lookups that hit"),
      misses(&statsGroup, "misses", "lookups that missed"),
      fills(&statsGroup, "fills", "lines installed"),
      writebacks(&statsGroup, "writebacks", "dirty lines written back"),
      flushedLines(&statsGroup, "flushedLines",
                   "valid lines removed by flush operations"),
      injectedEvictions(&statsGroup, "injectedEvictions",
                        "lines evicted by fault injection"),
      hitRate(&statsGroup, "hitRate", "fraction of accesses that hit",
              [this] {
                  return accesses.value()
                             ? static_cast<double>(hits.value()) /
                                   accesses.value()
                             : 0.0;
              }),
      config_(config),
      lineShift_(std::countr_zero(config.lineBytes)),
      setMask_(config.sets() - 1),
      array_(config.sets(), config.ways, PolicyKind::Lru)
{
    SASOS_ASSERT(std::has_single_bit(config.lineBytes), "line size not 2^k");
    SASOS_ASSERT(std::has_single_bit(config.sets()), "set count not 2^k");
    SASOS_ASSERT(config.sizeBytes % (config.lineBytes * config.ways) == 0,
                 "cache size not divisible by way size");
}

std::size_t
DataCache::indexOf(u64 vline, u64 pline) const
{
    const u64 line = config_.org == CacheOrg::Pipt ? pline : vline;
    return static_cast<std::size_t>(line & setMask_);
}

u64
DataCache::tagOf(u64 vline, u64 pline) const
{
    return config_.org == CacheOrg::Vivt ? vline : pline;
}

bool
DataCache::access(vm::VAddr va, std::optional<vm::PAddr> pa, bool store)
{
    ++accesses;
    const u64 vline = vlineOf(va);
    u64 pline = 0;
    if (config_.org != CacheOrg::Vivt) {
        SASOS_ASSERT(pa.has_value(), toString(config_.org),
                     " lookup needs a physical address");
        pline = plineOf(*pa);
    }
    LineState *line = array_.lookup(indexOf(vline, pline),
                                    tagOf(vline, pline));
    if (line == nullptr) {
        ++misses;
        return false;
    }
    if (store)
        line->dirty = true;
    ++hits;
    return true;
}

std::optional<CacheVictim>
DataCache::fill(vm::VAddr va, vm::PAddr pa, bool store)
{
    ++fills;
    const u64 vline = vlineOf(va);
    const u64 pline = plineOf(pa);
    LineState state;
    state.dirty = store;
    state.vline = vline;
    state.pline = pline;
    auto victim = array_.insert(indexOf(vline, pline), tagOf(vline, pline),
                                state);
    if (!victim)
        return std::nullopt;
    CacheVictim out;
    out.vline = victim->payload.vline;
    out.pline = victim->payload.pline;
    out.dirty = victim->payload.dirty;
    if (out.dirty)
        ++writebacks;
    return out;
}

FlushResult
DataCache::flushPage(vm::Vpn vpn, std::optional<vm::Pfn> pfn)
{
    const bool pipt = config_.org == CacheOrg::Pipt;
    SASOS_ASSERT(!pipt || pfn.has_value(),
                 "pipt flush needs the physical page");
    // The set index comes from the physical line on Pipt, the virtual
    // line otherwise.
    const u64 page = pipt ? pfn->number() : vpn.number();
    const u64 lines_per_page = vm::kPageBytes >> lineShift_;
    const u64 first_line = (page << vm::kPageShift) >> lineShift_;
    FlushResult result;
    result.lineAccesses = lines_per_page;

    // Both counts are powers of two, so the page's lines fill a
    // contiguous, non-wrapping run of sets (every set when the page
    // has more lines than the cache has sets).
    std::array<u64, vm::kPageBytes / 64> seen{}; // a bit per page line
    array_.invalidateInSets(
        static_cast<std::size_t>(first_line & setMask_),
        static_cast<std::size_t>(std::min(lines_per_page, setMask_ + 1)),
        [&](u64 tag, const LineState &line) {
            // Tags are the indexing line for Vivt and Pipt; Vipt tags
            // are physical, so match its stored virtual line.
            const u64 offset =
                (config_.org == CacheOrg::Vipt ? line.vline : tag) -
                first_line;
            if (offset >= lines_per_page)
                return false;
            // One flush access per line drops at most one line. A
            // Vipt set can hold a virtual line twice, under two
            // physical lines; the highest way goes (the scan runs
            // from high ways to low) and the lower synonym stays.
            u64 &word = seen[offset / 64];
            const u64 bit = u64{1} << (offset % 64);
            if (word & bit)
                return false;
            word |= bit;
            ++result.invalidated;
            result.writebacks += line.dirty ? 1 : 0;
            return true;
        });
    flushedLines += result.invalidated;
    writebacks += result.writebacks;
    return result;
}

FlushResult
DataCache::flushAll()
{
    FlushResult result;
    result.lineAccesses = config_.lines();
    array_.forEach([&](u64, LineState &state) {
        ++result.invalidated;
        ++flushedLines;
        if (state.dirty) {
            ++result.writebacks;
            ++writebacks;
        }
    });
    array_.invalidateAll();
    return result;
}

std::optional<CacheVictim>
DataCache::evictRandomLine(Rng &rng)
{
    const std::size_t live = array_.occupancy();
    if (live == 0)
        return std::nullopt;
    auto victim = array_.invalidateNth(
        static_cast<std::size_t>(rng.nextBelow(live)));
    if (!victim)
        return std::nullopt;
    ++injectedEvictions;
    CacheVictim out;
    out.vline = victim->payload.vline;
    out.pline = victim->payload.pline;
    out.dirty = victim->payload.dirty;
    if (out.dirty)
        ++writebacks;
    return out;
}

bool
DataCache::containsVirtualLine(u64 vline) const
{
    bool found = false;
    array_.forEach([&](u64, const LineState &state) {
        if (state.vline == vline)
            found = true;
    });
    return found;
}

void
DataCache::save(snap::SnapWriter &w) const
{
    w.putTag("dcache");
    array_.save(
        w,
        [](snap::SnapWriter &out, const u64 &tag) { out.put64(tag); },
        [](snap::SnapWriter &out, const LineState &line) {
            out.putBool(line.dirty);
            out.put64(line.vline);
            out.put64(line.pline);
        });
}

void
DataCache::load(snap::SnapReader &r)
{
    r.expectTag("dcache");
    array_.load(
        r,
        [](snap::SnapReader &in) { return in.get64(); },
        [](snap::SnapReader &in) {
            LineState line;
            line.dirty = in.getBool();
            line.vline = in.get64();
            line.pline = in.get64();
            return line;
        });
}

} // namespace sasos::hw
