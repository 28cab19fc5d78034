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

bool
ConventionalSystem::applyPerturbation(const fault::Perturbation &p)
{
    // Evictions and flushes below may take the memoized entry.
    memo_.valid = false;
    Rng &rng = injector_->rng();
    // The combined TLB holds protection and translation together, so
    // both eviction flavors land on it.
    if (p.evictProtection) {
        tlb_.evictOne(rng);
        SASOS_OBS_EVENT(obs::EventKind::TlbEvict, account_.total().count(),
                        0, 1);
    }
    if (p.evictTranslation) {
        tlb_.evictOne(rng);
        SASOS_OBS_EVENT(obs::EventKind::TlbEvict, account_.total().count(),
                        0, 1);
    }
    if (p.evictData) {
        if (auto victim = mem_.l1().evictRandomLine(rng); victim &&
            victim->dirty) {
            charge(CostCategory::Reference, config_.costs.writeback);
        }
        SASOS_OBS_EVENT(obs::EventKind::DCacheEvict,
                        account_.total().count(), 0, 1);
    }
    if (p.flushProtection) {
        tlb_.purgeAll();
        SASOS_OBS_EVENT(obs::EventKind::ProtectionFlush,
                        account_.total().count(), 0, 0);
    }
    if (p.delayFill)
        charge(CostCategory::Refill, config_.costs.faultDelay);
    return p.transientFault;
}

os::AccessResult
ConventionalSystem::access(os::DomainId domain, vm::VAddr va,
                           vm::AccessType type)
{
    if (injector_ != nullptr) {
        const fault::Perturbation p = injector_->tick();
        if (p.any() && applyPerturbation(p))
            return {false, os::FaultKind::Protection};
    }

    const vm::Vpn vpn = vm::pageOf(va);
    const bool store = type == vm::AccessType::Store;
    const hw::DomainId asid = tagOf(domain);

    charge(CostCategory::Reference, config_.costs.l1Hit);
    charge(CostCategory::Reference, config_.costs.tlbLookup);

    hw::TlbEntry *entry;
    if (memo_.valid && memo_.domain == domain &&
        memo_.vpn == vpn.number()) {
        // The previous reference hit this page's entry: count and
        // touch it exactly as a probe would, without re-probing.
        entry = memo_.entry;
        tlb_.replayHit(memo_.loc);
    } else {
        // Memoize a hit; a miss drops the memo before the refill below
        // may evict the entry it points at.
        hw::AssocLoc loc;
        entry = tlb_.lookup(vpn, asid, &loc);
        memo_ = {entry != nullptr, domain, vpn.number(), entry, loc};
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

    const vm::PAddr pa = vm::translate(va, entry->pfn);
    if (mem_.l1Access(va, pa, store)) {
        SASOS_OBS_EVENT(obs::EventKind::DCacheHit,
                        account_.total().count(), va.raw(), store);
    } else {
        SASOS_OBS_EVENT(obs::EventKind::DCacheMiss,
                        account_.total().count(), va.raw(), store);
        if (auto victim = mem_.fillFromBeyond(va, pa, store)) {
            SASOS_OBS_EVENT(obs::EventKind::DCacheEvict,
                            account_.total().count(), va.raw(),
                            victim->dirty);
            if (victim->dirty)
                charge(CostCategory::Reference, config_.costs.writeback);
        }
    }

    entry->referenced = true;
    if (store)
        entry->dirty = true;
    state_.pageTable.markReferenced(vpn);
    if (store)
        state_.pageTable.markDirty(vpn);
    return {true, os::FaultKind::None};
}

void
ConventionalSystem::onAttach(os::DomainId domain, const vm::Segment &seg,
                             vm::Access rights)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    // Entries fault in lazily, one per (domain, page).
    (void)domain;
    (void)seg;
    (void)rights;
}

void
ConventionalSystem::onDetach(os::DomainId domain, const vm::Segment &seg)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    const auto result =
        tlb_.purgeRange(tagOf(domain), seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
ConventionalSystem::onSetPageRights(os::DomainId domain, vm::Vpn vpn,
                                    vm::Access rights)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
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
ConventionalSystem::onSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    (void)rights;
    // Every domain's replica must go; refills apply the mask.
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry +
               config_.costs.purgeScanEntry * config_.tlb.ways);
}

void
ConventionalSystem::onClearPageRightsAllDomains(vm::Vpn vpn)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry +
               config_.costs.purgeScanEntry * config_.tlb.ways);
}

void
ConventionalSystem::onSetSegmentRights(os::DomainId domain,
                                       const vm::Segment &seg,
                                       vm::Access rights)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    (void)rights;
    const auto result =
        tlb_.purgeRange(tagOf(domain), seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
ConventionalSystem::onDomainSwitch(os::DomainId from, os::DomainId to)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
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
ConventionalSystem::onPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    (void)vpn;
    (void)pfn;
}

void
ConventionalSystem::onPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry);
    mem_.flushPage(vpn, pfn);
}

void
ConventionalSystem::onDomainDestroyed(os::DomainId domain)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    if (config_.purgeTlbOnSwitch)
        return; // no per-domain tags to clean
    const auto result = tlb_.purgeAsid(tagOf(domain));
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
ConventionalSystem::onSegmentDestroyed(const vm::Segment &seg)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    const auto result =
        tlb_.purgeRange(std::nullopt, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

bool
ConventionalSystem::refreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
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
ConventionalSystem::purgeForAck(std::optional<os::DomainId> domain,
                                vm::Vpn first, u64 pages)
{
    // Untagged entries carry ASID 0, whichever domain filled them.
    if (domain && config_.purgeTlbOnSwitch)
        domain = 0;
    memo_.valid = false;
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
ConventionalSystem::load(snap::SnapReader &r)
{
    // Maintenance may touch entries behind the same-page memo;
    // drop it (uniform rule for every hook).
    memo_.valid = false;
    // The image does not say who owns the untagged entries.
    running_ = 0;
    r.expectTag("convmodel");
    tlb_.load(r);
    mem_.load(r);
}


} // namespace sasos::core
