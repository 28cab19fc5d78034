#include "core/conventional_system.hh"

#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::core
{

ConventionalSystem::ConventionalSystem(const SystemConfig &config,
                                       os::VmState &state,
                                       CycleAccount &account,
                                       stats::Group *parent)
    : statsGroup(parent, "convSystem"),
      protectionDenies(&statsGroup, "protectionDenies",
                       "references denied by TLB rights"),
      translationFaultsSeen(&statsGroup, "translationFaults",
                            "references that found no translation"),
      switchPurges(&statsGroup, "switchPurges",
                   "full TLB purges on domain switches"),
      switchCacheFlushes(&statsGroup, "switchCacheFlushes",
                         "full data-cache flushes on domain switches"),
      config_(config), state_(state), account_(account),
      tlb_(config.tlb, &statsGroup, "tlb"),
      mem_(config_, &statsGroup, account)
{
    SASOS_ASSERT(config.tlb.kind == hw::TlbKind::Conventional,
                 "the conventional system uses an ASID-tagged TLB");
}

void
ConventionalSystem::charge(CostCategory category, Cycles cycles)
{
    account_.charge(category, cycles);
}

hw::DomainId
ConventionalSystem::tagOf(os::DomainId domain) const
{
    return config_.purgeTlbOnSwitch ? 0 : domain;
}

os::AccessResult
ConventionalSystem::access(os::DomainId domain, vm::VAddr va,
                           vm::AccessType type)
{
    // The combined TLB holds protection and translation together, so
    // both eviction flavors land on it.
    if (injector_ != nullptr &&
        mem_.perturb(
            *this, tlb_, obs::EventKind::TlbEvict,
            [&](Rng &rng) { tlb_.evictOne(rng); },
            [&] { tlb_.purgeAll(); })) {
        return {false, os::FaultKind::Protection};
    }

    const vm::Vpn vpn = vm::pageOf(va);
    const bool store = type == vm::AccessType::Store;
    const hw::DomainId asid = tagOf(domain);

    charge(CostCategory::Reference, config_.costs.l1Hit);
    charge(CostCategory::Reference, config_.costs.tlbLookup);

    hw::TlbEntry *entry;
    if (memoHit(domain, vpn)) {
        // The previous reference hit this page's entry: count and
        // touch it exactly as a probe would, without re-probing.
        entry = memo_.entry;
        tlb_.replayHit(memo_.loc);
    } else {
        // Memoize a hit; a miss drops the memo before the refill below
        // may evict the entry it points at.
        hw::AssocLoc loc;
        entry = tlb_.lookup(vpn, asid, &loc);
        if (entry != nullptr) {
            memoize(domain, vpn);
            memo_ = {entry, loc};
        } else {
            forgetMemo();
        }
    }
    if (entry == nullptr) {
        SASOS_OBS_EVENT(obs::EventKind::TlbMiss, account_.total().count(),
                        va.raw(), asid);
        charge(CostCategory::Refill, config_.costs.tlbRefill);
        const vm::Translation *translation = state_.pageTable.lookup(vpn);
        if (translation == nullptr) {
            ++translationFaultsSeen;
            return {false, os::FaultKind::Translation};
        }
        hw::TlbEntry fresh;
        fresh.pfn = translation->pfn;
        fresh.asid = asid;
        fresh.rights = state_.effectiveRights(domain, vpn);
        entry = &tlb_.insert(vpn, fresh);
        SASOS_OBS_EVENT(obs::EventKind::TlbFill, account_.total().count(),
                        va.raw(), asid);
    } else {
        SASOS_OBS_EVENT(obs::EventKind::TlbHit, account_.total().count(),
                        va.raw(), asid);
    }

    if (!vm::includes(entry->rights, vm::requiredRight(type))) {
        ++protectionDenies;
        return {false, os::FaultKind::Protection};
    }

    mem_.accessPhysical(va, *entry, store, state_.pageTable);
    return {true, os::FaultKind::None};
}

void
ConventionalSystem::doAttach(os::DomainId domain, const vm::Segment &seg,
                             vm::Access rights)
{
    // Entries fault in lazily, one per (domain, page).
    (void)domain;
    (void)seg;
    (void)rights;
}

void
ConventionalSystem::doDetach(os::DomainId domain, const vm::Segment &seg)
{
    const auto result =
        tlb_.purgeRange(tagOf(domain), seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
ConventionalSystem::doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                                    vm::Access rights)
{
    if (config_.purgeTlbOnSwitch) {
        // Untagged entries belong to whichever domain runs; the only
        // safe update is a purge-and-refill.
        if (tlb_.purgePageAsid(vpn, 0))
            charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
        return;
    }
    // One replica belongs to this domain; update it in place. The
    // hardware carries the *effective* rights (a global mask may
    // narrow the new grant).
    (void)rights;
    if (tlb_.setRights(vpn, state_.effectiveRights(domain, vpn),
                       tagOf(domain))) {
        charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    }
}

void
ConventionalSystem::doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    (void)rights;
    // Every domain's replica must go; refills apply the mask.
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry +
               config_.costs.purgeScanEntry * config_.tlb.ways);
}

void
ConventionalSystem::doClearPageRightsAllDomains(vm::Vpn vpn)
{
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry +
               config_.costs.purgeScanEntry * config_.tlb.ways);
}

void
ConventionalSystem::doSetSegmentRights(os::DomainId domain,
                                       const vm::Segment &seg,
                                       vm::Access rights)
{
    (void)rights;
    const auto result =
        tlb_.purgeRange(tagOf(domain), seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
ConventionalSystem::doDomainSwitch(os::DomainId from, os::DomainId to)
{
    (void)from;
    running_ = to;
    if (config_.purgeTlbOnSwitch) {
        // Protection *and* translation state discarded together --
        // the translations were the same for every domain.
        ++switchPurges;
        tlb_.purgeAll();
        SASOS_OBS_EVENT(obs::EventKind::ProtectionFlush,
                        account_.total().count(), 0, to);
        charge(CostCategory::DomainSwitch, config_.costs.registerWrite);
    } else {
        charge(CostCategory::DomainSwitch, config_.costs.registerWrite);
    }
    if (config_.flushCacheOnSwitch) {
        // A virtually indexed cache on a multiple-address-space
        // system must be flushed to avoid homonyms (Section 2.2, as
        // the i860 requires). The single address space systems never
        // pay this.
        ++switchCacheFlushes;
        mem_.flushAllL1();
    }
}

void
ConventionalSystem::doPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    (void)vpn;
    (void)pfn;
}

void
ConventionalSystem::doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry);
    mem_.flushPage(vpn, pfn);
}

void
ConventionalSystem::doDomainDestroyed(os::DomainId domain)
{
    if (config_.purgeTlbOnSwitch)
        return; // no per-domain tags to clean
    const auto result = tlb_.purgeAsid(tagOf(domain));
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
ConventionalSystem::doSegmentDestroyed(const vm::Segment &seg)
{
    const auto result =
        tlb_.purgeRange(std::nullopt, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

bool
ConventionalSystem::doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // Stale per-domain entry; drop it so the refill reads the tables.
    tlb_.purgePageAsid(vpn, tagOf(domain));
    charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    return true;
}

vm::Access
ConventionalSystem::cachedRights(os::DomainId domain, vm::Vpn vpn) const
{
    // Untagged (purge-on-switch) entries belong to the running domain
    // alone: every other domain reaches them only after a purge.
    if (config_.purgeTlbOnSwitch && domain != running_)
        return vm::Access::None;
    const hw::TlbEntry *entry = tlb_.peek(vpn, tagOf(domain));
    return entry ? entry->rights : vm::Access::None;
}

u64
ConventionalSystem::doPurgeForAck(std::optional<os::DomainId> domain,
                                  vm::Vpn first, u64 pages)
{
    // Untagged entries carry ASID 0, whichever domain filled them.
    if (domain && config_.purgeTlbOnSwitch)
        domain = 0;
    return tlb_.purgeRange(domain, first, pages).invalidated;
}

void
ConventionalSystem::save(snap::SnapWriter &w) const
{
    w.putTag("convmodel");
    tlb_.save(w);
    mem_.save(w);
}

void
ConventionalSystem::doLoad(snap::SnapReader &r)
{
    // The image does not say who owns the untagged entries.
    running_ = 0;
    r.expectTag("convmodel");
    tlb_.load(r);
    mem_.load(r);
}


} // namespace sasos::core
