#include "hw/tlb.hh"

#include <bit>

namespace sasos::hw
{

const char *
toString(TlbKind kind)
{
    switch (kind) {
      case TlbKind::Conventional:
        return "conventional";
      case TlbKind::PageGroup:
        return "page-group";
      case TlbKind::TranslationOnly:
        return "translation-only";
      case TlbKind::Pkey:
        return "pkey";
    }
    return "?";
}

Tlb::Tlb(const TlbConfig &config, stats::Group *parent,
         const std::string &name)
    : statsGroup(parent, name),
      lookups(&statsGroup, "lookups", "translation lookups"),
      hits(&statsGroup, "hits", "lookups that hit"),
      misses(&statsGroup, "misses", "lookups that missed"),
      insertions(&statsGroup, "insertions", "entries installed"),
      evictions(&statsGroup, "evictions", "valid entries evicted"),
      purgedEntries(&statsGroup, "purgedEntries",
                    "entries removed by purges"),
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
      array_(config.sets, config.ways, PolicyKind::Lru)
{
    SASOS_ASSERT(std::has_single_bit(config.sets), "set count not 2^k");
}

std::size_t
Tlb::setOf(vm::Vpn vpn) const
{
    return static_cast<std::size_t>(vpn.number() & (config_.sets - 1));
}

Tlb::Key
Tlb::keyOf(vm::Vpn vpn, DomainId asid) const
{
    Key key;
    key.vpn = vpn.number();
    key.asid = config_.kind == TlbKind::Conventional ? asid : 0;
    return key;
}

TlbEntry *
Tlb::lookup(vm::Vpn vpn, DomainId asid, AssocLoc *loc)
{
    ++lookups;
    TlbEntry *entry = array_.lookup(setOf(vpn), keyOf(vpn, asid), loc);
    if (entry == nullptr) {
        ++misses;
        return nullptr;
    }
    ++hits;
    return entry;
}

const TlbEntry *
Tlb::peek(vm::Vpn vpn, DomainId asid) const
{
    return array_.probe(setOf(vpn), keyOf(vpn, asid));
}

TlbEntry &
Tlb::insert(vm::Vpn vpn, const TlbEntry &entry)
{
    ++insertions;
    AssocLoc loc;
    if (array_.insert(setOf(vpn), keyOf(vpn, entry.asid), entry, &loc))
        ++evictions;
    return array_.at(loc);
}

bool
Tlb::setRights(vm::Vpn vpn, vm::Access rights, DomainId asid)
{
    TlbEntry *entry = array_.probe(setOf(vpn), keyOf(vpn, asid));
    if (entry == nullptr)
        return false;
    entry->rights = rights;
    return true;
}

bool
Tlb::setGroup(vm::Vpn vpn, GroupId aid, vm::Access rights)
{
    SASOS_ASSERT(config_.kind == TlbKind::PageGroup,
                 "setGroup on a ", toString(config_.kind), " TLB");
    TlbEntry *entry = array_.probe(setOf(vpn), keyOf(vpn, 0));
    if (entry == nullptr)
        return false;
    entry->aid = aid;
    entry->rights = rights;
    return true;
}

u64
Tlb::purgePage(vm::Vpn vpn)
{
    if (config_.kind != TlbKind::Conventional) {
        const bool dropped = array_.invalidate(setOf(vpn), keyOf(vpn, 0));
        if (dropped)
            ++purgedEntries;
        return dropped ? 1 : 0;
    }
    // Conventional: one replica per ASID may exist; scan the set.
    const u64 dropped = array_.invalidateInSets(
        setOf(vpn), 1, [vpn](const Key &key, const TlbEntry &) {
            return key.vpn == vpn.number();
        });
    purgedEntries += dropped;
    return dropped;
}

bool
Tlb::purgePageAsid(vm::Vpn vpn, DomainId asid)
{
    const bool dropped = array_.invalidate(setOf(vpn), keyOf(vpn, asid));
    if (dropped)
        ++purgedEntries;
    return dropped;
}

PurgeResult
Tlb::purgeAsid(DomainId asid)
{
    SASOS_ASSERT(config_.kind == TlbKind::Conventional,
                 "purgeAsid on a ", toString(config_.kind), " TLB");
    PurgeResult result = array_.invalidateIf(
        [asid](const Key &key, const TlbEntry &) {
            return key.asid == asid;
        });
    purgedEntries += result.invalidated;
    return result;
}

PurgeResult
Tlb::purgeRange(std::optional<DomainId> asid, vm::Vpn first, u64 pages)
{
    const u64 lo = first.number();
    const u64 hi = lo + pages;
    PurgeResult result = array_.invalidateIf(
        [&](const Key &key, const TlbEntry &) {
            if (asid && key.asid != *asid)
                return false;
            return key.vpn >= lo && key.vpn < hi;
        });
    purgedEntries += result.invalidated;
    return result;
}

u64
Tlb::purgeAll()
{
    const u64 dropped = array_.invalidateAll();
    purgedEntries += dropped;
    return dropped;
}

bool
Tlb::evictOne(Rng &rng)
{
    const std::size_t live = array_.occupancy();
    if (live == 0)
        return false;
    array_.invalidateNth(static_cast<std::size_t>(rng.nextBelow(live)));
    ++injectedEvictions;
    return true;
}

void
Tlb::save(snap::SnapWriter &w) const
{
    w.putTag("tlb");
    array_.save(
        w,
        [](snap::SnapWriter &out, const Key &key) {
            out.put64(key.vpn);
            out.put16(key.asid);
        },
        [](snap::SnapWriter &out, const TlbEntry &entry) {
            out.put64(entry.pfn.number());
            out.put8(static_cast<u8>(entry.rights));
            out.put16(entry.asid);
            out.put16(entry.aid);
            out.putBool(entry.dirty);
            out.putBool(entry.referenced);
        });
}

void
Tlb::load(snap::SnapReader &r)
{
    r.expectTag("tlb");
    array_.load(
        r,
        [](snap::SnapReader &in) {
            Key key;
            key.vpn = in.get64();
            key.asid = in.get16();
            return key;
        },
        [](snap::SnapReader &in) {
            TlbEntry entry;
            entry.pfn = vm::Pfn(in.get64());
            const u8 rights = in.get8();
            if (rights > static_cast<u8>(vm::Access::All))
                SASOS_FATAL("corrupt snapshot: invalid rights byte ",
                            static_cast<unsigned>(rights));
            entry.rights = static_cast<vm::Access>(rights);
            entry.asid = in.get16();
            entry.aid = in.get16();
            entry.dirty = in.getBool();
            entry.referenced = in.getBool();
            return entry;
        });
}

} // namespace sasos::hw
