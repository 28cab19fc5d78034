#include "core/plb_system.hh"

#include <bit>

#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::core
{

PlbSystem::PlbSystem(const SystemConfig &config, os::VmState &state,
                     CycleAccount &account, stats::Group *parent)
    : statsGroup(parent, "plbSystem"),
      protectionDenies(&statsGroup, "protectionDenies",
                       "references denied by the PLB"),
      translationFaultsSeen(&statsGroup, "translationFaults",
                            "references that found no translation"),
      superPageFills(&statsGroup, "superPageFills",
                     "PLB refills using a super-page entry"),
      pageFills(&statsGroup, "pageFills",
                "PLB refills using a page-size entry"),
      writebackTranslations(&statsGroup, "writebackTranslations",
                            "victim translations for VIVT writebacks"),
      config_(config), state_(state), account_(account),
      plb_(config.plb.clusters > 1
               ? nullptr
               : std::make_unique<hw::Plb>(config.plb, &statsGroup)),
      clplb_(config.plb.clusters > 1
                 ? std::make_unique<hw::ClusterPlb>(config.plb, &statsGroup)
                 : nullptr),
      tlb_(config.tlb, &statsGroup, "tlb2"),
      mem_(config_, &statsGroup, account)
{
    SASOS_ASSERT(config.tlb.kind == hw::TlbKind::TranslationOnly,
                 "the PLB system uses a translation-only TLB");
    plbPageUniform_ =
        withEngine([](const auto &engine) { return engine.pageUniform(); });
}

void
PlbSystem::charge(CostCategory category, Cycles cycles)
{
    account_.charge(category, cycles);
}

int
PlbSystem::refillShift(os::DomainId domain, vm::Vpn vpn,
                       const vm::Segment *seg) const
{
    (void)domain;
    // The clustered engine shards by VPN range, so a super-page entry
    // could straddle a bank boundary: refills stay page-grain.
    if (clplb_ != nullptr)
        return vm::kPageShift;
    if (!config_.superPagePlb || seg == nullptr ||
        !seg->isPowerOfTwoAligned()) {
        return vm::kPageShift;
    }
    const int shift =
        vm::kPageShift + std::countr_zero(seg->pages);
    const auto &shifts = config_.plb.sizeShifts;
    if (std::find(shifts.begin(), shifts.end(), shift) == shifts.end())
        return vm::kPageShift;
    // A super-page entry carries one rights value for the whole
    // segment, so it is only usable while no page in the segment has
    // per-page state (overrides or masks) for any domain.
    if (!state_.pagesWithStateIn(seg->firstPage, seg->pages).empty())
        return vm::kPageShift;
    // And the domain's own rights must be uniform: the segment grant
    // with no page override (checked above globally).
    (void)vpn;
    return shift;
}

std::optional<vm::Access>
PlbSystem::probeProtection(os::DomainId domain, vm::VAddr va)
{
    const vm::Vpn vpn = vm::pageOf(va);
    if (memoHit(domain, vpn)) {
        // The previous reference hit this page's entry: count and
        // touch it exactly as a probe would, without re-probing.
        if (clplb_ != nullptr)
            clplb_->replayHit(vpn.number(), memo_.loc);
        else
            plb_->replayHit(memo_.loc);
        return memo_.rights;
    }
    // From here on the memo describes another page, and a refill
    // after a miss may evict the entry it points at.
    forgetMemo();
    hw::AssocLoc loc;
    const auto match = withEngine(
        [&](auto &engine) { return engine.lookup(domain, va, &loc); });
    if (!match)
        return std::nullopt;
    if (plbPageUniform_) {
        memoize(domain, vpn);
        memo_ = {match->rights, loc};
    }
    return match->rights;
}

os::AccessResult
PlbSystem::access(os::DomainId domain, vm::VAddr va, vm::AccessType type)
{
    if (injector_ != nullptr &&
        mem_.perturb(
            *this, tlb_, obs::EventKind::PlbEvict,
            [&](Rng &rng) {
                withEngine([&](auto &engine) { return engine.evictOne(rng); });
            },
            [&] {
                withEngine([](auto &engine) { return engine.purgeAll(); });
            })) {
        // Transient protection fault: resolved by the kernel like any
        // stale-entry deny, so the retried reference reaches the clean
        // run's outcome.
        return {false, os::FaultKind::Protection};
    }

    const vm::Vpn vpn = vm::pageOf(va);
    const bool store = type == vm::AccessType::Store;

    // One base cycle covers the parallel PLB + VIVT cache probe.
    charge(CostCategory::Reference, config_.costs.l1Hit);

    // --- Protection side: PLB, refilled from the protection tables.
    vm::Access rights;
    if (const auto hit = probeProtection(domain, va)) {
        rights = *hit;
        SASOS_OBS_EVENT(obs::EventKind::PlbHit, account_.total().count(),
                        va.raw(), domain);
    } else {
        SASOS_OBS_EVENT(obs::EventKind::PlbMiss, account_.total().count(),
                        va.raw(), domain);
        charge(CostCategory::Refill, config_.costs.plbRefill);
        rights = state_.effectiveRights(domain, vpn);
        const vm::Segment *seg = state_.segments.findByPage(vpn);
        const int shift = refillShift(domain, vpn, seg);
        if (shift > vm::kPageShift)
            ++superPageFills;
        else
            ++pageFills;
        withEngine([&](auto &engine) {
            engine.insert(domain, va, shift, rights);
            return 0;
        });
        SASOS_OBS_EVENT(obs::EventKind::PlbFill, account_.total().count(),
                        va.raw(), static_cast<u64>(shift));
    }

    // --- Data side: the cache is probed in parallel.
    const bool cache_hit = mem_.l1Access(va, std::nullopt, store);
    SASOS_OBS_EVENT(cache_hit ? obs::EventKind::DCacheHit
                              : obs::EventKind::DCacheMiss,
                    account_.total().count(), va.raw(), store);

    if (!vm::includes(rights, vm::requiredRight(type))) {
        ++protectionDenies;
        return {false, os::FaultKind::Protection};
    }

    if (cache_hit) {
        state_.pageTable.markReferenced(vpn);
        if (store)
            state_.pageTable.markDirty(vpn);
        return {true, os::FaultKind::None};
    }

    // Cache miss: translation is needed, from the off-chip TLB.
    const auto pfn = translateOffChip(vpn);
    if (!pfn) {
        ++translationFaultsSeen;
        return {false, os::FaultKind::Translation};
    }

    const vm::PAddr pa = vm::translate(va, *pfn);
    if (auto victim = mem_.fillFromBeyond(va, pa, store)) {
        SASOS_OBS_EVENT(obs::EventKind::DCacheEvict,
                        account_.total().count(), va.raw(),
                        victim->dirty);
        if (victim->dirty) {
            // A VIVT writeback needs the victim's translation.
            ++writebackTranslations;
            const vm::Vpn victim_vpn(victim->vline * config_.cache.lineBytes
                                     >> vm::kPageShift);
            (void)translateOffChip(victim_vpn);
            charge(CostCategory::Reference, config_.costs.writeback);
        }
    }

    state_.pageTable.markReferenced(vpn);
    if (store)
        state_.pageTable.markDirty(vpn);
    return {true, os::FaultKind::None};
}

std::optional<vm::Pfn>
PlbSystem::translateOffChip(vm::Vpn vpn)
{
    charge(CostCategory::Reference, config_.costs.offChipTlb);
    if (hw::TlbEntry *entry = tlb_.lookup(vpn)) {
        SASOS_OBS_EVENT(obs::EventKind::TlbHit, account_.total().count(),
                        vm::baseOf(vpn).raw(), 0);
        return entry->pfn;
    }
    SASOS_OBS_EVENT(obs::EventKind::TlbMiss, account_.total().count(),
                    vm::baseOf(vpn).raw(), 0);
    charge(CostCategory::Refill, config_.costs.tlbRefill);
    const vm::Translation *translation = state_.pageTable.lookup(vpn);
    if (translation == nullptr)
        return std::nullopt;
    hw::TlbEntry entry;
    entry.pfn = translation->pfn;
    tlb_.insert(vpn, entry);
    SASOS_OBS_EVENT(obs::EventKind::TlbFill, account_.total().count(),
                    vm::baseOf(vpn).raw(), translation->pfn.number());
    return translation->pfn;
}

void
PlbSystem::doAttach(os::DomainId domain, const vm::Segment &seg,
                    vm::Access rights)
{
    // Nothing: rights are faulted into the PLB lazily, page (or
    // segment) at a time. This is the Table 1 "Attach Segment" row.
    (void)domain;
    (void)seg;
    (void)rights;
}

void
PlbSystem::doDetach(os::DomainId domain, const vm::Segment &seg)
{
    // Worst case from the paper: inspect every PLB entry and drop
    // those for the (segment, domain) pair.
    const auto result = protPurgeRange(domain, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
PlbSystem::doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                           vm::Access rights)
{
    // "Changing a domain's access rights to a page simply requires
    // updating a PLB entry." A covering super-page entry no longer
    // has uniform rights and must be shattered first. The hardware
    // carries the *effective* rights (a global mask may narrow the
    // new grant).
    (void)rights;
    const vm::VAddr va = vm::baseOf(vpn);
    const vm::Access effective = state_.effectiveRights(domain, vpn);
    if (auto match = protPeek(domain, va)) {
        withEngine([&](auto &engine) {
            if (match->sizeShift != vm::kPageShift) {
                engine.invalidateCovering(domain, va);
                engine.insert(domain, va, vm::kPageShift, effective);
            } else {
                engine.updateRights(domain, va, effective);
            }
            return 0;
        });
        charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    }
}

void
PlbSystem::doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    // Restricting every domain: intersect any cached entry for the
    // page, whatever domain it belongs to. The cost scales with the
    // PLB size (a scan), as the paper notes for such operations.
    const auto result = withEngine([&](auto &engine) {
        return engine.intersectRightsRange(vpn, 1, rights);
    });
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry);
}

void
PlbSystem::doClearPageRightsAllDomains(vm::Vpn vpn)
{
    // Per-domain rights apply again; entries were narrowed, so purge
    // and let refills read the canonical tables.
    const auto result = protPurgeRange(std::nullopt, vpn, 1);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
PlbSystem::doSetSegmentRights(os::DomainId domain, const vm::Segment &seg,
                              vm::Access rights)
{
    // Inspect each entry, dropping this domain's entries for the
    // segment; refills pick up the new grant (and respect any page
    // overrides, which an in-place blanket update could not).
    (void)rights;
    const auto result = protPurgeRange(domain, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
PlbSystem::doDomainSwitch(os::DomainId from, os::DomainId to)
{
    // The whole point: a switch writes the PD-ID register, nothing
    // else. Neither the PLB nor the TLB is purged.
    (void)from;
    (void)to;
    charge(CostCategory::DomainSwitch, config_.costs.registerWrite);
}

void
PlbSystem::doPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // Translations are loaded lazily by the off-chip TLB.
    (void)vpn;
    (void)pfn;
}

void
PlbSystem::doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // Purge the translation and flush the page's lines. The PLB is
    // deliberately left alone: a stale entry may still allow the
    // access, but the missing translation faults it (Section 4.1.3).
    tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    mem_.flushPage(vpn, pfn);
}

void
PlbSystem::doDomainDestroyed(os::DomainId domain)
{
    const auto result = withEngine(
        [&](auto &engine) { return engine.purgeDomain(domain); });
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

void
PlbSystem::doSegmentDestroyed(const vm::Segment &seg)
{
    const auto result =
        protPurgeRange(std::nullopt, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

bool
PlbSystem::doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // The canonical tables allow the access, so the PLB holds a stale
    // deny; replace it with a fresh page-grain entry.
    const vm::VAddr va = vm::baseOf(vpn);
    withEngine([&](auto &engine) {
        engine.invalidateCovering(domain, va);
        engine.insert(domain, va, vm::kPageShift,
                      state_.effectiveRights(domain, vpn));
        return 0;
    });
    charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    return true;
}

vm::Access
PlbSystem::cachedRights(os::DomainId domain, vm::Vpn vpn) const
{
    const auto match = protPeek(domain, vm::baseOf(vpn));
    return match ? match->rights : vm::Access::None;
}

u64
PlbSystem::doPurgeForAck(std::optional<os::DomainId> domain, vm::Vpn first,
                         u64 pages)
{
    return protPurgeRange(domain, first, pages).invalidated;
}

void
PlbSystem::save(snap::SnapWriter &w) const
{
    // Distinct section tags per organization: a flat image refuses to
    // load into a clustered run (and vice versa) at the tag check,
    // and golden flat images keep their original byte layout.
    if (clplb_ != nullptr) {
        w.putTag("clplbmodel");
        clplb_->save(w);
    } else {
        w.putTag("plbmodel");
        plb_->save(w);
    }
    tlb_.save(w);
    mem_.save(w);
}

void
PlbSystem::doLoad(snap::SnapReader &r)
{
    if (clplb_ != nullptr) {
        r.expectTag("clplbmodel");
        clplb_->load(r);
    } else {
        r.expectTag("plbmodel");
        plb_->load(r);
    }
    tlb_.load(r);
    mem_.load(r);
}

hw::PurgeResult
PlbSystem::protPurgeRange(std::optional<hw::DomainId> domain, vm::Vpn first,
                          u64 pages)
{
    return withEngine([&](auto &engine) {
        return engine.purgeRange(domain, first, pages);
    });
}

std::optional<hw::PlbMatch>
PlbSystem::protPeek(os::DomainId domain, vm::VAddr va) const
{
    return withEngine(
        [&](const auto &engine) { return engine.peek(domain, va); });
}

std::size_t
PlbSystem::protOccupancy() const
{
    return withEngine(
        [](const auto &engine) { return engine.occupancy(); });
}

u64
PlbSystem::protMisses() const
{
    return withEngine(
        [](const auto &engine) { return engine.misses.value(); });
}

u64
PlbSystem::protPurgeScans() const
{
    if (clplb_ == nullptr)
        return plb_->purgeScans.value();
    u64 scans = 0;
    for (unsigned i = 0; i < clplb_->clusters(); ++i)
        scans += clplb_->bank(i).purgeScans.value();
    return scans;
}


} // namespace sasos::core
