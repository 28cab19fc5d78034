/**
 * @file
 * Overwrite the rights one model caches for one (domain, page), as a
 * model that missed a hook would hold them. Tests use it to show that
 * a hardware-within-canonical check can fail (raise the entry) and to
 * plant a stale deny that the kernel repairs through
 * refreshAfterFault (lower it).
 */

#ifndef SASOS_TESTS_CACHED_ENTRY_HH
#define SASOS_TESTS_CACHED_ENTRY_HH

#include "core/conventional_system.hh"
#include "core/pagegroup_system.hh"
#include "core/pkey_system.hh"
#include "core/plb_system.hh"

namespace sasos::test
{

/**
 * Overwrite the rights `model` caches for (domain, vpn) through the
 * model's public hardware accessor: the PLB entry, the conventional
 * TLB entry, the (domain, key) register, or the page-group TLB
 * entry's Rights field. The entry must be cached already (for the
 * page-group model, with `domain` running and its group in the PID
 * cache). Leaves the same-page memo alone: the caller must drop it.
 * @return false when there was nothing cached to overwrite.
 */
inline bool
pokeCachedRights(os::ProtectionModel &model, os::DomainId domain,
                 vm::Vpn vpn, vm::Access rights)
{
    bool set = false;
    if (auto *plb = dynamic_cast<core::PlbSystem *>(&model)) {
        set = plb->plb().updateRights(domain, vm::baseOf(vpn), rights);
    } else if (auto *conv =
                   dynamic_cast<core::ConventionalSystem *>(&model)) {
        // Purge-on-switch entries are untagged (ASID 0).
        set = conv->tlb().setRights(vpn, rights, domain) ||
              conv->tlb().setRights(vpn, rights, 0);
    } else if (auto *pkey = dynamic_cast<core::PkeySystem *>(&model)) {
        const hw::TlbEntry *entry = pkey->tlb().peek(vpn);
        set = entry != nullptr &&
              pkey->keyCache().updateRights(domain, entry->aid, rights);
    } else if (auto *pg = dynamic_cast<core::PageGroupSystem *>(&model)) {
        set = pg->cachedRights(domain, vpn) != vm::Access::None &&
              pg->tlb().setRights(vpn, rights);
    }
    return set;
}

/** pokeCachedRights, then drop the same-page memo, as every structure
 * poke must. */
inline bool
setCachedRights(os::ProtectionModel &model, os::DomainId domain,
                vm::Vpn vpn, vm::Access rights)
{
    const bool set = pokeCachedRights(model, domain, vpn, rights);
    model.dropMemo();
    return set;
}

/** Raise the cached rights for (domain, vpn) to All: a model that
 * missed a revoke. */
inline bool
raiseCachedEntry(os::ProtectionModel &model, os::DomainId domain,
                 vm::Vpn vpn)
{
    return setCachedRights(model, domain, vpn, vm::Access::All);
}

} // namespace sasos::test

#endif // SASOS_TESTS_CACHED_ENTRY_HH
