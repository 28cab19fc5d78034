#include "hw/key_cache.hh"

namespace sasos::hw
{

KeyCache::KeyCache(const KeyCacheConfig &config, stats::Group *parent)
    : statsGroup(parent, "keycache"),
      lookups(&statsGroup, "lookups", "key-permission register reads"),
      hits(&statsGroup, "hits", "reads that matched a register"),
      misses(&statsGroup, "misses", "reads that missed"),
      insertions(&statsGroup, "insertions", "registers installed"),
      evictions(&statsGroup, "evictions", "valid registers evicted"),
      flips(&statsGroup, "flips", "registers flipped in place"),
      injectedEvictions(&statsGroup, "injectedEvictions",
                        "registers dropped by fault injection"),
      config_(config),
      array_(1, config.entries, PolicyKind::Lru)
{
}

std::optional<vm::Access>
KeyCache::lookup(DomainId domain, KeyId key, AssocLoc *loc)
{
    ++lookups;
    KeyPerm *perm = array_.lookup(0, Key{domain, key}, loc);
    if (perm == nullptr) {
        ++misses;
        return std::nullopt;
    }
    ++hits;
    return perm->rights;
}

std::optional<vm::Access>
KeyCache::peek(DomainId domain, KeyId key) const
{
    const KeyPerm *perm = array_.probe(0, Key{domain, key});
    if (perm == nullptr)
        return std::nullopt;
    return perm->rights;
}

void
KeyCache::insert(DomainId domain, KeyId key, vm::Access rights)
{
    KeyPerm *existing = array_.probe(0, Key{domain, key});
    if (existing != nullptr) {
        existing->rights = rights;
        return;
    }
    ++insertions;
    if (array_.insert(0, Key{domain, key}, KeyPerm{rights}))
        ++evictions;
}

bool
KeyCache::updateRights(DomainId domain, KeyId key, vm::Access rights)
{
    KeyPerm *perm = array_.probe(0, Key{domain, key});
    if (perm == nullptr)
        return false;
    perm->rights = rights;
    ++flips;
    return true;
}

bool
KeyCache::remove(DomainId domain, KeyId key)
{
    return array_.invalidate(0, Key{domain, key});
}

PurgeResult
KeyCache::invalidateKey(KeyId key)
{
    return array_.invalidateIf(
        [key](const Key &k, const KeyPerm &) { return k.key == key; });
}

PurgeResult
KeyCache::purgeDomain(DomainId domain)
{
    return array_.invalidateIf([domain](const Key &k, const KeyPerm &) {
        return k.domain == domain;
    });
}

u64
KeyCache::purgeAll()
{
    return array_.invalidateAll();
}

bool
KeyCache::evictOne(Rng &rng)
{
    const std::size_t live = array_.occupancy();
    if (live == 0)
        return false;
    array_.invalidateNth(static_cast<std::size_t>(rng.nextBelow(live)));
    ++injectedEvictions;
    return true;
}

void
KeyCache::save(snap::SnapWriter &w) const
{
    w.putTag("keycache");
    array_.save(
        w,
        [](snap::SnapWriter &out, const Key &key) {
            out.put16(key.domain);
            out.put16(key.key);
        },
        [](snap::SnapWriter &out, const KeyPerm &perm) {
            out.put8(static_cast<u8>(perm.rights));
        });
}

void
KeyCache::load(snap::SnapReader &r)
{
    r.expectTag("keycache");
    array_.load(
        r,
        [](snap::SnapReader &in) {
            Key key;
            key.domain = in.get16();
            key.key = in.get16();
            return key;
        },
        [](snap::SnapReader &in) {
            KeyPerm perm;
            const u8 rights = in.get8();
            if (rights > static_cast<u8>(vm::Access::All))
                SASOS_FATAL("corrupt snapshot: invalid rights byte ",
                            static_cast<unsigned>(rights));
            perm.rights = static_cast<vm::Access>(rights);
            return perm;
        });
}

} // namespace sasos::hw
