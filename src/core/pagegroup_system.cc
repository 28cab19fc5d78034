#include "core/pagegroup_system.hh"

#include <algorithm>

#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::core
{

PageGroupSystem::PageGroupSystem(const SystemConfig &config,
                                 os::VmState &state, CycleAccount &account,
                                 stats::Group *parent)
    : statsGroup(parent, "pgSystem"),
      protectionDenies(&statsGroup, "protectionDenies",
                       "references denied by the protection check"),
      translationFaultsSeen(&statsGroup, "translationFaults",
                            "references that found no translation"),
      pgCacheRefills(&statsGroup, "pgCacheRefills",
                     "page-group cache misses refilled by the kernel"),
      groupMoves(&statsGroup, "groupMoves",
                 "TLB entries rewritten because a page changed group"),
      eagerReloads(&statsGroup, "eagerReloads",
                   "page-group cache entries loaded eagerly on switch"),
      unionPurges(&statsGroup, "unionPurges",
                  "TLB range purges from default-rights changes"),
      config_(config), state_(state), account_(account),
      manager_(state, &statsGroup),
      tlb_(config.tlb, &statsGroup, "tlb"),
      pgCache_(config.pgCache, &statsGroup),
      mem_(config_, &statsGroup, account)
{
    SASOS_ASSERT(config.tlb.kind == hw::TlbKind::PageGroup,
                 "the page-group system uses a page-group TLB");
    // A freed AID may be recycled for a group with different members;
    // any PID still cached for it must go (and with it any same-page
    // memo that could be replaying the stale group).
    manager_.onGroupFreed = [this](os::GroupId aid) {
        dropMemo();
        pgCache_.remove(aid);
    };
}

void
PageGroupSystem::charge(CostCategory category, Cycles cycles)
{
    account_.charge(category, cycles);
}

os::AccessResult
PageGroupSystem::access(os::DomainId domain, vm::VAddr va,
                        vm::AccessType type)
{
    if (injector_ != nullptr &&
        mem_.perturb(
            *this, tlb_, obs::EventKind::PgCacheEvict,
            [&](Rng &rng) { pgCache_.evictOne(rng); },
            [&] { pgCache_.purgeAll(); })) {
        current_ = domain;
        return {false, os::FaultKind::Protection};
    }

    const vm::Vpn vpn = vm::pageOf(va);
    const bool store = type == vm::AccessType::Store;
    current_ = domain;

    // Base cycle; the TLB lookup is on the critical path but costs no
    // extra cycles when it hits (tlbLookup defaults to 0; the cycle-
    // time consequence of the *sequential* page-group check is modeled
    // analytically in bench_fig2).
    charge(CostCategory::Reference, config_.costs.l1Hit);
    charge(CostCategory::Reference, config_.costs.tlbLookup);

    // --- Combined TLB: translation + AID + group rights. A same-page
    // run replays the previous reference's TLB and page-group hits
    // from the memo, counted and touched exactly as the probes would.
    const bool memo_hit = memoHit(domain, vpn);
    hw::AssocLoc tlb_loc;
    hw::TlbEntry *entry;
    if (memo_hit) {
        entry = memo_.entry;
        tlb_.replayHit(memo_.tlbLoc);
    } else {
        // The refills below may evict the entries the memo points at.
        dropMemo();
        entry = tlb_.lookup(vpn, 0, &tlb_loc);
    }
    const bool tlb_hit = entry != nullptr;
    if (entry == nullptr) {
        SASOS_OBS_EVENT(obs::EventKind::TlbMiss, account_.total().count(),
                        va.raw(), domain);
        charge(CostCategory::Refill, config_.costs.tlbRefill);
        const vm::Translation *translation = state_.pageTable.lookup(vpn);
        if (translation == nullptr) {
            ++translationFaultsSeen;
            return {false, os::FaultKind::Translation};
        }
        const os::PageGroupState st = manager_.pageState(vpn);
        hw::TlbEntry fresh;
        fresh.pfn = translation->pfn;
        fresh.aid = st.aid;
        fresh.rights = st.rights;
        entry = &tlb_.insert(vpn, fresh);
        SASOS_OBS_EVENT(obs::EventKind::TlbFill, account_.total().count(),
                        va.raw(), st.aid);
    } else {
        SASOS_OBS_EVENT(obs::EventKind::TlbHit, account_.total().count(),
                        va.raw(), entry->aid);
    }

    // --- Page-group check, dependent on the TLB output.
    hw::AssocLoc pg_loc;
    std::optional<hw::PidMatch> pid;
    if (memo_hit) {
        pgCache_.replayHit(entry->aid, memo_.pgLoc);
        pid = hw::PidMatch{memo_.writeDisable};
    } else {
        pid = pgCache_.lookup(entry->aid, &pg_loc);
    }
    bool write_disable = false;
    if (pid) {
        write_disable = pid->writeDisable;
        SASOS_OBS_EVENT(obs::EventKind::PgCacheHit,
                        account_.total().count(), va.raw(), entry->aid);
        // Fills leave their ways unknown, so only a reference that hit
        // both structures memoizes; the next same-page one replays.
        if (tlb_hit && !memo_hit) {
            memoize(domain, vpn);
            memo_ = {entry, tlb_loc, pg_loc, write_disable};
        }
    } else if (manager_.domainHasGroup(domain, entry->aid)) {
        // Lightweight kernel refill of the page-group cache.
        SASOS_OBS_EVENT(obs::EventKind::PgCacheMiss,
                        account_.total().count(), va.raw(), entry->aid);
        ++pgCacheRefills;
        charge(CostCategory::Refill, config_.costs.pgCacheRefill);
        write_disable = manager_.writeDisabled(domain, entry->aid);
        pgCache_.insert(entry->aid, write_disable);
        SASOS_OBS_EVENT(obs::EventKind::PgCacheFill,
                        account_.total().count(), va.raw(), entry->aid);
    } else {
        SASOS_OBS_EVENT(obs::EventKind::PgCacheMiss,
                        account_.total().count(), va.raw(), entry->aid);
        ++protectionDenies;
        return {false, os::FaultKind::Protection};
    }

    vm::Access rights = entry->rights;
    if (write_disable)
        rights = rights & ~vm::Access::Write;
    if (!vm::includes(rights, vm::requiredRight(type))) {
        ++protectionDenies;
        return {false, os::FaultKind::Protection};
    }

    // --- Data cache (physical tag from the TLB's translation).
    mem_.accessPhysical(va, *entry, store, state_.pageTable);
    return {true, os::FaultKind::None};
}

void
PageGroupSystem::syncTlbEntry(vm::Vpn vpn, const os::PageGroupState &st)
{
    if (tlb_.setGroup(vpn, st.aid, st.rights)) {
        ++groupMoves;
        charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    }
}

void
PageGroupSystem::checkUnionChanged(const vm::Segment &seg)
{
    const vm::Access now = manager_.defaultRightsOf(seg.id);
    auto it = lastUnion_.find(seg.id);
    if (it != lastUnion_.end() && it->second == now)
        return;
    const bool had = it != lastUnion_.end();
    lastUnion_[seg.id] = now;
    if (!had)
        return; // first observation; no stale entries yet
    // The Rights field cached in TLB entries of the default group is
    // stale; purge the segment's range so refills pick up the new
    // union. (Pages in split groups repurge via their own hooks.)
    ++unionPurges;
    const auto result =
        tlb_.purgeRange(std::nullopt, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
    // The current domain's write-disable bit for the default group is
    // derived from (its grant vs the union), so a union change can
    // flip it; drop the cached PID and let it refill.
    if (pgCache_.remove(manager_.defaultGroupOf(seg.id)))
        charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
}

void
PageGroupSystem::doAttach(os::DomainId domain, const vm::Segment &seg,
                          vm::Access rights)
{
    (void)rights;
    // Table 1: "add the page-group identifier for the segment to the
    // page-group cache" -- O(1), the model's headline advantage.
    const os::GroupId aid = manager_.defaultGroupOf(seg.id);
    if (domain == current_ && current_ != 0 &&
        manager_.domainHasGroup(domain, aid)) {
        pgCache_.insert(aid, manager_.writeDisabled(domain, aid));
        charge(CostCategory::KernelWork, config_.costs.pgCacheLoadEntry);
    }
    checkUnionChanged(seg);
}

void
PageGroupSystem::doDetach(os::DomainId domain, const vm::Segment &seg)
{
    // Table 1: "remove the appropriate page-group identifier from the
    // page-group cache".
    for (os::GroupId aid : manager_.groupsOfSegment(seg.id)) {
        if (domain == current_ && pgCache_.remove(aid))
            charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    }
    // Pages with per-page state -- or parked in fault-driven split
    // groups -- may regroup now that this domain's rights are gone.
    for (vm::Vpn vpn : regroupCandidates(seg))
        syncTlbEntry(vpn, manager_.regroupPage(vpn));
    checkUnionChanged(seg);
}

void
PageGroupSystem::doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                                 vm::Access rights)
{
    (void)domain;
    (void)rights;
    // Section 4.1.2: a per-domain change on a shared page may move
    // the page between groups (a split); the manager decides.
    const os::PageGroupState st = manager_.regroupPage(vpn);
    syncTlbEntry(vpn, st);
    // If the current domain gained a new group, it will fault it into
    // the page-group cache lazily (pgCacheRefill).
}

void
PageGroupSystem::doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    (void)rights;
    // Table 1 paging rows: the page moves to the pager-private (or
    // null) group -- a single TLB entry update.
    syncTlbEntry(vpn, manager_.regroupPage(vpn));
}

void
PageGroupSystem::doClearPageRightsAllDomains(vm::Vpn vpn)
{
    syncTlbEntry(vpn, manager_.regroupPage(vpn));
}

void
PageGroupSystem::doSetSegmentRights(os::DomainId domain,
                                    const vm::Segment &seg,
                                    vm::Access rights)
{
    (void)rights;
    // Membership and D bits are derived, so a grant change that keeps
    // the union intact (e.g. dropping one domain to read-only via its
    // D bit) costs nothing here; a union change purges the range.
    checkUnionChanged(seg);
    if (domain == current_) {
        // The current domain's D bit for the default group may have
        // changed; drop the cached PID so it refills correctly.
        const os::GroupId aid = manager_.defaultGroupOf(seg.id);
        if (pgCache_.remove(aid))
            charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    }
    // Pages in split groups whose vectors include this domain change
    // too; regroup them.
    for (vm::Vpn vpn : regroupCandidates(seg))
        syncTlbEntry(vpn, manager_.regroupPage(vpn));
}

std::vector<vm::Vpn>
PageGroupSystem::regroupCandidates(const vm::Segment &seg) const
{
    std::vector<vm::Vpn> pages =
        state_.pagesWithStateIn(seg.firstPage, seg.pages);
    for (vm::Vpn vpn :
         manager_.assignedPagesIn(seg.firstPage, seg.pages)) {
        pages.push_back(vpn);
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    return pages;
}

void
PageGroupSystem::doDomainSwitch(os::DomainId from, os::DomainId to)
{
    (void)from;
    current_ = to;
    // Section 4.1.4: purge the page-group cache; reload eagerly or
    // let protection faults reload it lazily.
    pgCache_.purgeAll();
    charge(CostCategory::DomainSwitch, config_.costs.registerWrite);
    if (config_.eagerPgReload) {
        u64 loaded = 0;
        for (os::GroupId aid : manager_.groupsOf(to)) {
            if (loaded >= pgCache_.capacity())
                break;
            pgCache_.insert(aid, manager_.writeDisabled(to, aid));
            ++loaded;
        }
        eagerReloads += loaded;
        charge(CostCategory::DomainSwitch,
               loaded * config_.costs.pgCacheLoadEntry);
    }
}

void
PageGroupSystem::doPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    (void)vpn;
    (void)pfn;
}

void
PageGroupSystem::doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    if (tlb_.purgePage(vpn))
        charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    mem_.flushPage(vpn, pfn);
}

void
PageGroupSystem::doDomainDestroyed(os::DomainId domain)
{
    (void)domain;
    // Memberships are derived from canonical state, which the kernel
    // has already cleared; cached PIDs belong to the current domain,
    // which cannot be the one destroyed.
}

void
PageGroupSystem::doSegmentDestroyed(const vm::Segment &seg)
{
    for (os::GroupId aid : manager_.groupsOfSegment(seg.id))
        pgCache_.remove(aid);
    manager_.releaseSegment(seg.id);
    lastUnion_.erase(seg.id);
    const auto result =
        tlb_.purgeRange(std::nullopt, seg.firstPage, seg.pages);
    charge(CostCategory::KernelWork,
           result.scanned * config_.costs.purgeScanEntry +
               result.invalidated * config_.costs.invalidateEntry);
}

bool
PageGroupSystem::doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // The canonical tables allow the access but the hardware said no:
    // the page's group does not serve this domain (stale Rights
    // field, or an inexpressible vector grouped toward another
    // domain). Regroup toward the faulting domain and refresh the
    // TLB and page-group cache.
    const os::PageGroupState st = manager_.regroupPageFor(vpn, domain);
    syncTlbEntry(vpn, st);
    if (!manager_.domainHasGroup(domain, st.aid))
        return false;
    pgCache_.insert(st.aid, manager_.writeDisabled(domain, st.aid));
    charge(CostCategory::KernelWork, config_.costs.pgCacheLoadEntry);
    return true;
}

vm::Access
PageGroupSystem::cachedRights(os::DomainId domain, vm::Vpn vpn) const
{
    // The PID cache holds the running domain's groups only; a page
    // is granted what its TLB entry's Rights field allows, minus
    // Write under the cached write-disable bit.
    if (domain != current_)
        return vm::Access::None;
    const hw::TlbEntry *entry = tlb_.peek(vpn);
    if (entry == nullptr)
        return vm::Access::None;
    const std::optional<hw::PidMatch> pid = pgCache_.peek(entry->aid);
    if (!pid)
        return vm::Access::None;
    return pid->writeDisable ? entry->rights & ~vm::Access::Write
                             : entry->rights;
}

u64
PageGroupSystem::doPurgeForAck(std::optional<os::DomainId> domain,
                               vm::Vpn first, u64 pages)
{
    // Page-group entries are shared by all domains; the op's domain
    // does not narrow which TLB entries could be stale. The purge is
    // what closes the deferred-ack collapse: acks apply against
    // *current* canonical state, so a union that bounced A->B->A
    // between two of this core's acks is invisible to the hooks'
    // lastUnion_ diff, yet a refill under the transient B may have
    // cached a PID write-disable bit that is wrong again under A. The
    // handler flash-invalidates the PID cache (it is purged on every
    // domain switch anyway) and drops the range's TLB entries; refills
    // after the final ack rederive from canonical state.
    (void)domain;
    pgCache_.purgeAll();
    return tlb_.purgeRange(std::nullopt, first, pages).invalidated;
}

void
PageGroupSystem::save(snap::SnapWriter &w) const
{
    w.putTag("pgmodel");
    manager_.save(w);
    tlb_.save(w);
    pgCache_.save(w);
    mem_.save(w);
    w.put16(current_);
    w.put64(lastUnion_.size());
    for (const auto &[seg, rights] : lastUnion_) {
        w.put32(seg);
        w.put8(static_cast<u8>(rights));
    }
}

void
PageGroupSystem::doLoad(snap::SnapReader &r)
{
    r.expectTag("pgmodel");
    manager_.load(r);
    tlb_.load(r);
    pgCache_.load(r);
    mem_.load(r);
    current_ = static_cast<os::DomainId>(r.get16());
    lastUnion_.clear();
    const u32 union_count = r.getCount(5);
    for (u32 i = 0; i < union_count; ++i) {
        const vm::SegmentId seg = r.get32();
        const u8 raw = r.get8();
        if (raw > static_cast<u8>(vm::Access::All))
            SASOS_FATAL("corrupt snapshot: invalid rights byte ", u32(raw));
        if (!lastUnion_.emplace(seg, static_cast<vm::Access>(raw)).second)
            SASOS_FATAL("corrupt snapshot: segment ", seg,
                        " has two recorded unions");
    }
}


} // namespace sasos::core
