#include "hw/plb.hh"

#include <algorithm>
#include <bit>

namespace sasos::hw
{

Plb::Plb(const PlbConfig &config, stats::Group *parent)
    : statsGroup(parent, "plb"),
      lookups(&statsGroup, "lookups", "protection lookups"),
      hits(&statsGroup, "hits", "lookups that matched an entry"),
      misses(&statsGroup, "misses", "lookups with no matching entry"),
      insertions(&statsGroup, "insertions", "entries installed"),
      evictions(&statsGroup, "evictions", "valid entries evicted"),
      updates(&statsGroup, "updates", "in-place rights updates"),
      purgedEntries(&statsGroup, "purgedEntries",
                    "entries removed by purges"),
      purgeScans(&statsGroup, "purgeScans",
                 "entries inspected during purge scans"),
      injectedEvictions(&statsGroup, "injectedEvictions",
                        "entries dropped by fault injection"),
      hitRate(&statsGroup, "hitRate", "fraction of lookups that hit",
              [this] {
                  return lookups.value()
                             ? static_cast<double>(hits.value()) /
                                   lookups.value()
                             : 0.0;
              }),
      config_(config),
      probeOrder_(config.sizeShifts),
      array_(config.sets, config.ways, PolicyKind::Lru)
{
    SASOS_ASSERT(!probeOrder_.empty(), "PLB needs at least one size class");
    SASOS_ASSERT(std::has_single_bit(config.sets), "set count not 2^k");
    std::sort(probeOrder_.begin(), probeOrder_.end());
    probeOrder_.erase(std::unique(probeOrder_.begin(), probeOrder_.end()),
                      probeOrder_.end());
    for (int shift : probeOrder_)
        SASOS_ASSERT(shift >= 0 && shift < 64, "bad size shift ", shift);
}

std::size_t
Plb::setOf(u64 block) const
{
    return static_cast<std::size_t>(block & (config_.sets - 1));
}

Plb::Key
Plb::keyFor(DomainId domain, vm::VAddr va, int size_shift) const
{
    Key key;
    key.domain = domain;
    key.block = va.raw() >> size_shift;
    key.sizeShift = size_shift;
    return key;
}

std::pair<u64, u64>
Plb::blockSpan(const Key &key)
{
    const u64 first = key.block << key.sizeShift;
    const u64 last = first + ((u64{1} << key.sizeShift) - 1);
    return {first, last};
}

std::optional<PlbMatch>
Plb::lookup(DomainId domain, vm::VAddr va, AssocLoc *loc)
{
    ++lookups;
    for (int shift : probeOrder_) {
        // A size class with no valid entries anywhere cannot hit, and
        // probing it has no side effect, so skip the set scan.
        if (shiftOccupancy_[static_cast<std::size_t>(shift)] == 0)
            continue;
        const Key key = keyFor(domain, va, shift);
        vm::Access *rights = array_.lookup(setOf(key.block), key, loc);
        if (rights != nullptr) {
            ++hits;
            return PlbMatch{*rights, shift};
        }
    }
    ++misses;
    return std::nullopt;
}

std::optional<PlbMatch>
Plb::peek(DomainId domain, vm::VAddr va) const
{
    for (int shift : probeOrder_) {
        if (shiftOccupancy_[static_cast<std::size_t>(shift)] == 0)
            continue;
        const Key key = keyFor(domain, va, shift);
        const vm::Access *rights = array_.probe(setOf(key.block), key);
        if (rights != nullptr)
            return PlbMatch{*rights, shift};
    }
    return std::nullopt;
}

void
Plb::insert(DomainId domain, vm::VAddr va, int size_shift, vm::Access rights)
{
    (void)insertTracked(domain, va, size_shift, rights);
}

Plb::InsertOutcome
Plb::insertTracked(DomainId domain, vm::VAddr va, int size_shift,
                   vm::Access rights)
{
    SASOS_ASSERT(std::find(probeOrder_.begin(), probeOrder_.end(),
                           size_shift) != probeOrder_.end(),
                 "PLB does not support size shift ", size_shift);
    InsertOutcome outcome;
    const Key key = keyFor(domain, va, size_shift);
    vm::Access *existing = array_.probe(setOf(key.block), key);
    if (existing != nullptr) {
        *existing = rights;
        ++updates;
        return outcome;
    }
    outcome.inserted = true;
    ++insertions;
    ++shiftOccupancy_[static_cast<std::size_t>(size_shift)];
    if (const auto victim = array_.insert(setOf(key.block), key, rights)) {
        ++evictions;
        --shiftOccupancy_[static_cast<std::size_t>(victim->tag.sizeShift)];
        outcome.victim = Evicted{victim->tag.domain, victim->tag.block,
                                 victim->tag.sizeShift};
    }
    return outcome;
}

bool
Plb::updateRights(DomainId domain, vm::VAddr va, vm::Access rights)
{
    for (int shift : probeOrder_) {
        const Key key = keyFor(domain, va, shift);
        vm::Access *existing = array_.probe(setOf(key.block), key);
        if (existing != nullptr) {
            *existing = rights;
            ++updates;
            return true;
        }
    }
    return false;
}

std::optional<int>
Plb::invalidateCovering(DomainId domain, vm::VAddr va)
{
    for (int shift : probeOrder_) {
        const Key key = keyFor(domain, va, shift);
        if (array_.invalidate(setOf(key.block), key)) {
            ++purgedEntries;
            --shiftOccupancy_[static_cast<std::size_t>(shift)];
            return shift;
        }
    }
    return std::nullopt;
}

PurgeResult
Plb::updateRightsRange(std::optional<DomainId> domain, vm::Vpn first,
                       u64 pages, vm::Access rights)
{
    const u64 range_first = first.number() << vm::kPageShift;
    const u64 range_last =
        ((first.number() + pages) << vm::kPageShift) - 1;
    PurgeResult result;
    result.scanned = array_.capacity(); // full hardware scan
    // One pass updates fully contained entries; partially overlapping
    // ones are collected and invalidated (they can no longer carry a
    // single rights value).
    std::vector<Key> partial;
    array_.forEach([&](const Key &key, vm::Access &entry_rights) {
        if (domain && key.domain != *domain)
            return;
        const auto [block_first, block_last] = blockSpan(key);
        if (block_first > range_last || block_last < range_first)
            return;
        if (block_first >= range_first && block_last <= range_last) {
            entry_rights = rights;
            ++updates;
        } else {
            partial.push_back(key);
        }
    });
    for (const Key &key : partial) {
        if (array_.invalidate(setOf(key.block), key)) {
            ++result.invalidated;
            ++purgedEntries;
            --shiftOccupancy_[static_cast<std::size_t>(key.sizeShift)];
        }
    }
    purgeScans += result.scanned;
    return result;
}

PurgeResult
Plb::intersectRightsRange(vm::Vpn first, u64 pages, vm::Access mask)
{
    const u64 range_first = first.number() << vm::kPageShift;
    const u64 range_last =
        ((first.number() + pages) << vm::kPageShift) - 1;
    PurgeResult result;
    result.scanned = array_.capacity(); // full hardware scan
    array_.forEach([&](const Key &key, vm::Access &entry_rights) {
        const auto [block_first, block_last] = blockSpan(key);
        if (block_first > range_last || block_last < range_first)
            return;
        // Intersecting a partially covered super-page entry would
        // wrongly restrict the uncovered part, so only entries fully
        // inside the range are revised in place; we accept the
        // conservative narrowing for entries that span beyond the
        // range start/end by treating them the same (safe: rights
        // only shrink).
        entry_rights = entry_rights & mask;
        ++updates;
    });
    purgeScans += result.scanned;
    return result;
}

PurgeResult
Plb::purgeDomain(DomainId domain)
{
    PurgeResult result = array_.invalidateIf(
        [&](const Key &key, const vm::Access &) {
            if (key.domain != domain)
                return false;
            --shiftOccupancy_[static_cast<std::size_t>(key.sizeShift)];
            return true;
        });
    purgeScans += result.scanned;
    purgedEntries += result.invalidated;
    return result;
}

PurgeResult
Plb::purgeRange(std::optional<DomainId> domain, vm::Vpn first, u64 pages)
{
    const u64 range_first = first.number() << vm::kPageShift;
    const u64 range_last =
        ((first.number() + pages) << vm::kPageShift) - 1;
    PurgeResult result = array_.invalidateIf(
        [&](const Key &key, const vm::Access &) {
            if (domain && key.domain != *domain)
                return false;
            const auto [block_first, block_last] = blockSpan(key);
            if (block_first > range_last || block_last < range_first)
                return false;
            --shiftOccupancy_[static_cast<std::size_t>(key.sizeShift)];
            return true;
        });
    purgeScans += result.scanned;
    purgedEntries += result.invalidated;
    return result;
}

u64
Plb::purgeAll()
{
    const u64 dropped = array_.invalidateAll();
    purgedEntries += dropped;
    shiftOccupancy_.fill(0);
    return dropped;
}

u64
Plb::countRange(std::optional<DomainId> domain, vm::Vpn first,
                u64 pages) const
{
    const u64 range_first = first.number() << vm::kPageShift;
    const u64 range_last =
        ((first.number() + pages) << vm::kPageShift) - 1;
    u64 count = 0;
    array_.forEach([&](const Key &key, const vm::Access &) {
        if (domain && key.domain != *domain)
            return;
        const auto [block_first, block_last] = blockSpan(key);
        if (block_first <= range_last && block_last >= range_first)
            ++count;
    });
    return count;
}

bool
Plb::evictOne(Rng &rng)
{
    return evictOneTracked(rng).has_value();
}

std::optional<Plb::Evicted>
Plb::evictOneTracked(Rng &rng)
{
    const std::size_t live = array_.occupancy();
    if (live == 0)
        return std::nullopt;
    std::optional<Evicted> dropped;
    if (const auto victim = array_.invalidateNth(
            static_cast<std::size_t>(rng.nextBelow(live)))) {
        --shiftOccupancy_[static_cast<std::size_t>(victim->tag.sizeShift)];
        dropped = Evicted{victim->tag.domain, victim->tag.block,
                          victim->tag.sizeShift};
    }
    ++injectedEvictions;
    return dropped;
}

void
Plb::save(snap::SnapWriter &w) const
{
    w.putTag("plb");
    array_.save(
        w,
        [](snap::SnapWriter &out, const Key &key) {
            out.put16(key.domain);
            out.put64(key.block);
            out.put32(static_cast<u32>(key.sizeShift));
        },
        [](snap::SnapWriter &out, const vm::Access &rights) {
            out.put8(static_cast<u8>(rights));
        });
}

void
Plb::load(snap::SnapReader &r)
{
    r.expectTag("plb");
    array_.load(
        r,
        [this](snap::SnapReader &in) {
            Key key;
            key.domain = in.get16();
            key.block = in.get64();
            const u32 shift = in.get32();
            if (std::find(probeOrder_.begin(), probeOrder_.end(),
                          static_cast<int>(shift)) == probeOrder_.end())
                SASOS_FATAL("corrupt snapshot: plb entry with "
                            "unsupported size shift ",
                            shift);
            key.sizeShift = static_cast<int>(shift);
            return key;
        },
        [](snap::SnapReader &in) {
            const u8 rights = in.get8();
            if (rights > static_cast<u8>(vm::Access::All))
                SASOS_FATAL("corrupt snapshot: invalid rights byte ",
                            static_cast<unsigned>(rights));
            return static_cast<vm::Access>(rights);
        });
    shiftOccupancy_.fill(0);
    array_.forEach([this](const Key &key, const vm::Access &) {
        ++shiftOccupancy_[static_cast<std::size_t>(key.sizeShift)];
    });
}

} // namespace sasos::hw
