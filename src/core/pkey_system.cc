#include "core/pkey_system.hh"

#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::core
{

PkeySystem::PkeySystem(const SystemConfig &config, os::VmState &state,
                       CycleAccount &account, stats::Group *parent)
    : statsGroup(parent, "pkeySystem"),
      protectionDenies(&statsGroup, "protectionDenies",
                       "references denied by key-register rights"),
      translationFaultsSeen(&statsGroup, "translationFaults",
                            "references that found no translation"),
      keyAssignments(&statsGroup, "keyAssignments",
                     "protection-key ids bound by the kernel"),
      keyRecycles(&statsGroup, "keyRecycles",
                  "key ids recycled under key-space pressure"),
      pageKeyPromotions(&statsGroup, "pageKeyPromotions",
                        "pages promoted from a segment key to their own"),
      keyCorruptions(&statsGroup, "keyCorruptions",
                     "injected key-register corruption scrubs"),
      config_(config), state_(state), account_(account),
      tlb_(config.tlb, &statsGroup, "tlb"),
      keyCache_(config.keyCache, &statsGroup),
      mem_(config_, &statsGroup, account)
{
    SASOS_ASSERT(config.tlb.kind == hw::TlbKind::Pkey,
                 "the pkey system uses an untagged key-carrying TLB");
    SASOS_ASSERT(config.pkeys >= 2, "a usable key space needs >= 2 ids");
    SASOS_ASSERT(config.pkeys <= u64{1} << 16,
                 "key ids must fit the TLB's 16-bit key field");
    bindings_.resize(config.pkeys + 1);
}

void
PkeySystem::charge(CostCategory category, Cycles cycles)
{
    account_.charge(category, cycles);
}

hw::KeyId
PkeySystem::allocKey(BindKind kind, u64 id)
{
    for (hw::KeyId key = 1; key <= config_.pkeys; ++key) {
        if (bindings_[key].kind == BindKind::Free) {
            bindings_[key] = {kind, id};
            ++keyAssignments;
            charge(CostCategory::KernelWork, config_.costs.keyAssign);
            return key;
        }
    }
    // Key space exhausted: retire the round-robin victim, then rebind
    // it. Recycling is the expensive path -- every register and TLB
    // entry carrying the retired id must go before the id is reused.
    recycleCursor_ =
        static_cast<hw::KeyId>(recycleCursor_ % config_.pkeys + 1);
    const hw::KeyId victim = recycleCursor_;
    retireKey(victim);
    ++keyRecycles;
    bindings_[victim] = {kind, id};
    ++keyAssignments;
    charge(CostCategory::KernelWork, config_.costs.keyAssign);
    return victim;
}

void
PkeySystem::retireKey(hw::KeyId key)
{
    KeyBinding &binding = bindings_[key];
    switch (binding.kind) {
      case BindKind::Segment:
        segKey_.erase(static_cast<vm::SegmentId>(binding.id));
        break;
      case BindKind::Page:
        pageKey_.erase(binding.id);
        break;
      case BindKind::Free:
        return;
    }
    binding = {};
    const auto regs = keyCache_.invalidateKey(key);
    std::vector<vm::Vpn> stale;
    tlb_.forEach([&](vm::Vpn vpn, hw::DomainId, hw::TlbEntry &entry) {
        if (entry.aid == key)
            stale.push_back(vpn);
    });
    for (vm::Vpn vpn : stale)
        tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           regs.scanned * config_.costs.purgeScanEntry +
               regs.invalidated * config_.costs.invalidateEntry +
               tlb_.capacity() * config_.costs.purgeScanEntry +
               stale.size() * config_.costs.invalidateEntry);
}

hw::KeyId
PkeySystem::promotePage(vm::Vpn vpn)
{
    const auto it = pageKey_.find(vpn.number());
    if (it != pageKey_.end())
        return it->second;
    const hw::KeyId key = allocKey(BindKind::Page, vpn.number());
    pageKey_.emplace(vpn.number(), key);
    ++pageKeyPromotions;
    // The page's TLB entry (if any) still carries the segment key;
    // drop it so the next refill tags it with its own key.
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry);
    return key;
}

void
PkeySystem::maybeReleasePageKey(vm::Vpn vpn)
{
    const auto it = pageKey_.find(vpn.number());
    if (it == pageKey_.end())
        return;
    if (!state_.pagesWithStateIn(vpn, 1).empty())
        return; // overrides remain; the page keeps its key
    retireKey(it->second);
}

hw::KeyId
PkeySystem::keyFor(vm::Vpn vpn)
{
    const auto page_it = pageKey_.find(vpn.number());
    if (page_it != pageKey_.end())
        return page_it->second;
    if (!state_.pagesWithStateIn(vpn, 1).empty()) {
        // Per-page state appeared while the page was untagged (e.g.
        // restored state or a pre-reference override): promote at
        // refill so one register always describes one rights value.
        return promotePage(vpn);
    }
    const vm::Segment *seg = state_.segments.findByPage(vpn);
    if (seg == nullptr) {
        // A mapped page outside any live segment (mid-destruction)
        // gets its own key rather than polluting a segment binding.
        return promotePage(vpn);
    }
    const auto seg_it = segKey_.find(seg->id);
    if (seg_it != segKey_.end())
        return seg_it->second;
    const hw::KeyId key = allocKey(BindKind::Segment, seg->id);
    segKey_.emplace(seg->id, key);
    return key;
}

hw::KeyId
PkeySystem::keyOf(vm::Vpn vpn) const
{
    const auto page_it = pageKey_.find(vpn.number());
    if (page_it != pageKey_.end())
        return page_it->second;
    const vm::Segment *seg = state_.segments.findByPage(vpn);
    if (seg == nullptr)
        return 0;
    const auto seg_it = segKey_.find(seg->id);
    return seg_it != segKey_.end() ? seg_it->second : 0;
}

u64
PkeySystem::boundKeys() const
{
    return segKey_.size() + pageKey_.size();
}

os::AccessResult
PkeySystem::access(os::DomainId domain, vm::VAddr va, vm::AccessType type)
{
    // Protection state lives in the key-permission register file, so
    // the protection eviction flavor lands there; rights are rederived
    // from canonical state on the next miss. The flush models key-
    // register corruption: the whole file is scrubbed and refilled
    // from the kernel's tables.
    if (injector_ != nullptr &&
        mem_.perturb(
            *this, tlb_, obs::EventKind::KeyEvict,
            [&](Rng &rng) { keyCache_.evictOne(rng); },
            [&] {
                keyCache_.purgeAll();
                ++keyCorruptions;
            })) {
        return {false, os::FaultKind::Protection};
    }

    const vm::Vpn vpn = vm::pageOf(va);
    const bool store = type == vm::AccessType::Store;

    charge(CostCategory::Reference, config_.costs.l1Hit);
    charge(CostCategory::Reference, config_.costs.tlbLookup);

    // --- Key-carrying TLB. A same-page run replays the previous
    // reference's TLB and register hits from the memo, counted and
    // touched exactly as the probes would.
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
                        va.raw(), 0);
        charge(CostCategory::Refill, config_.costs.tlbRefill);
        const vm::Translation *translation = state_.pageTable.lookup(vpn);
        if (translation == nullptr) {
            ++translationFaultsSeen;
            return {false, os::FaultKind::Translation};
        }
        hw::TlbEntry fresh;
        fresh.pfn = translation->pfn;
        fresh.aid = keyFor(vpn);
        entry = &tlb_.insert(vpn, fresh);
        SASOS_OBS_EVENT(obs::EventKind::TlbFill, account_.total().count(),
                        va.raw(), entry->aid);
    } else {
        SASOS_OBS_EVENT(obs::EventKind::TlbHit, account_.total().count(),
                        va.raw(), entry->aid);
    }

    // --- Key-permission registers, dependent on the TLB's key.
    const hw::KeyId key = entry->aid;
    hw::AssocLoc kpr_loc;
    std::optional<vm::Access> cached;
    if (memo_hit) {
        keyCache_.replayHit(memo_.kprLoc);
        cached = memo_.rights;
    } else {
        cached = keyCache_.lookup(domain, key, &kpr_loc);
    }
    vm::Access rights;
    if (cached) {
        rights = *cached;
        SASOS_OBS_EVENT(obs::EventKind::KeyHit, account_.total().count(),
                        va.raw(), key);
        // Fills leave their ways unknown, so only a reference that hit
        // both structures memoizes; the next same-page one replays.
        if (tlb_hit && !memo_hit) {
            memoize(domain, vpn);
            memo_ = {entry, tlb_loc, kpr_loc, rights};
        }
    } else {
        SASOS_OBS_EVENT(obs::EventKind::KeyMiss,
                        account_.total().count(), va.raw(), key);
        charge(CostCategory::Refill, config_.costs.kprRefill);
        // By the promotion invariant every page under this key shares
        // this page's effective rights, so the register refill may
        // derive from the faulting page alone.
        rights = state_.effectiveRights(domain, vpn);
        keyCache_.insert(domain, key, rights);
        SASOS_OBS_EVENT(obs::EventKind::KeyFill,
                        account_.total().count(), va.raw(), key);
    }

    if (!vm::includes(rights, vm::requiredRight(type))) {
        ++protectionDenies;
        return {false, os::FaultKind::Protection};
    }

    mem_.accessPhysical(va, *entry, store, state_.pageTable);
    return {true, os::FaultKind::None};
}

void
PkeySystem::dropPageKeyRegisters(os::DomainId domain, vm::Vpn first,
                                 u64 pages)
{
    const u64 lo = first.number();
    const u64 hi = lo + pages;
    for (auto it = pageKey_.lower_bound(lo);
         it != pageKey_.end() && it->first < hi; ++it) {
        if (keyCache_.remove(domain, it->second))
            charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    }
}

void
PkeySystem::doAttach(os::DomainId domain, const vm::Segment &seg,
                     vm::Access rights)
{
    // The key binds lazily at the first refill; if the segment already
    // has one, the grant is a single register write for this domain.
    const auto it = segKey_.find(seg.id);
    if (it != segKey_.end())
        keyCache_.updateRights(domain, it->second, rights);
    charge(CostCategory::KernelWork, config_.costs.registerWrite);
    // Promoted pages derive their rights per page; drop this domain's
    // registers for them so refills reread canonical state.
    dropPageKeyRegisters(domain, seg.firstPage, seg.pages);
}

void
PkeySystem::doDetach(os::DomainId domain, const vm::Segment &seg)
{
    const auto it = segKey_.find(seg.id);
    if (it != segKey_.end() && keyCache_.remove(domain, it->second))
        charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    charge(CostCategory::KernelWork, config_.costs.registerWrite);
    dropPageKeyRegisters(domain, seg.firstPage, seg.pages);
    // The TLB keeps its untagged entries: translations (and key ids)
    // are domain-independent, the revoked domain simply has no
    // register for the key any more.
}

void
PkeySystem::doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                            vm::Access rights)
{
    (void)rights;
    // The page now has per-page state: give it its own key, then flip
    // this domain's register for it. The hardware carries *effective*
    // rights (a global mask may narrow the new grant).
    const hw::KeyId key = promotePage(vpn);
    keyCache_.updateRights(domain, key, state_.effectiveRights(domain, vpn));
    charge(CostCategory::KernelWork, config_.costs.registerWrite);
}

void
PkeySystem::doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    (void)rights;
    // A global mask narrows every domain's rights on this page: the
    // page gets its own key and every domain's register for it goes;
    // refills rederive through the mask.
    const hw::KeyId key = promotePage(vpn);
    const auto regs = keyCache_.invalidateKey(key);
    charge(CostCategory::KernelWork,
           regs.scanned * config_.costs.purgeScanEntry +
               regs.invalidated * config_.costs.invalidateEntry);
}

void
PkeySystem::doClearPageRightsAllDomains(vm::Vpn vpn)
{
    const auto it = pageKey_.find(vpn.number());
    if (it == pageKey_.end())
        return;
    const auto regs = keyCache_.invalidateKey(it->second);
    charge(CostCategory::KernelWork,
           regs.scanned * config_.costs.purgeScanEntry +
               regs.invalidated * config_.costs.invalidateEntry);
    // When no overrides remain either, the page folds back into its
    // segment's key (retireKey also drops the stale TLB tagging).
    maybeReleasePageKey(vpn);
}

void
PkeySystem::doSetSegmentRights(os::DomainId domain, const vm::Segment &seg,
                               vm::Access rights)
{
    // The headline path: segment-wide revocation (or grant) is one
    // register flip -- no per-page scan, no TLB purge. Pages promoted
    // to their own keys are governed by overrides or masks, except
    // that a domain without an override still derives from the grant,
    // so its page-key registers are dropped for refill.
    const auto it = segKey_.find(seg.id);
    if (it != segKey_.end())
        keyCache_.updateRights(domain, it->second, rights);
    charge(CostCategory::KernelWork, config_.costs.registerWrite);
    dropPageKeyRegisters(domain, seg.firstPage, seg.pages);
}

void
PkeySystem::doDomainSwitch(os::DomainId from, os::DomainId to)
{
    (void)from;
    (void)to;
    // Registers are domain-tagged and survive the switch; the TLB is
    // untagged and shared. One register write selects the domain.
    charge(CostCategory::DomainSwitch, config_.costs.registerWrite);
}

void
PkeySystem::doPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    (void)vpn;
    (void)pfn;
}

void
PkeySystem::doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    const u64 dropped = tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork,
           dropped * config_.costs.invalidateEntry);
    mem_.flushPage(vpn, pfn);
}

void
PkeySystem::doDomainDestroyed(os::DomainId domain)
{
    const auto regs = keyCache_.purgeDomain(domain);
    charge(CostCategory::KernelWork,
           regs.scanned * config_.costs.purgeScanEntry +
               regs.invalidated * config_.costs.invalidateEntry);
}

void
PkeySystem::doSegmentDestroyed(const vm::Segment &seg)
{
    const auto it = segKey_.find(seg.id);
    if (it != segKey_.end())
        retireKey(it->second);
    const u64 lo = seg.firstPage.number();
    const u64 hi = lo + seg.pages;
    std::vector<hw::KeyId> victims;
    for (auto page_it = pageKey_.lower_bound(lo);
         page_it != pageKey_.end() && page_it->first < hi; ++page_it) {
        victims.push_back(page_it->second);
    }
    for (hw::KeyId key : victims)
        retireKey(key);
}

bool
PkeySystem::doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // The denial may have come from a stale register or a stale key
    // tag; drop both so the retry rederives from the tables.
    const auto it = pageKey_.find(vpn.number());
    hw::KeyId key = it != pageKey_.end() ? it->second : 0;
    if (key == 0) {
        if (const vm::Segment *seg = state_.segments.findByPage(vpn)) {
            const auto seg_it = segKey_.find(seg->id);
            if (seg_it != segKey_.end())
                key = seg_it->second;
        }
    }
    if (key != 0)
        keyCache_.remove(domain, key);
    tlb_.purgePage(vpn);
    charge(CostCategory::KernelWork, config_.costs.invalidateEntry);
    return true;
}

vm::Access
PkeySystem::cachedRights(os::DomainId domain, vm::Vpn vpn) const
{
    // The hardware grants only what a TLB-resident key tag plus a
    // live (domain, key) register jointly allow.
    const hw::TlbEntry *entry = tlb_.peek(vpn);
    if (entry == nullptr)
        return vm::Access::None;
    return keyCache_.peek(domain, entry->aid).value_or(vm::Access::None);
}

u64
PkeySystem::doPurgeForAck(std::optional<os::DomainId> domain, vm::Vpn first,
                          u64 pages)
{
    // Key-permission updates ride the same deferred acks, and the
    // same A->B->A collapse applies: a register refilled under a
    // transient intermediate grant is invisible to the final ack's
    // hook diff. The handler scrubs the whole register file (it is
    // small and refills from canonical state) and drops the range's
    // TLB entries so stale key tags rederive too.
    (void)domain;
    keyCache_.purgeAll();
    return tlb_.purgeRange(std::nullopt, first, pages).invalidated;
}

void
PkeySystem::save(snap::SnapWriter &w) const
{
    w.putTag("pkeymodel");
    tlb_.save(w);
    keyCache_.save(w);
    w.putTag("keytables");
    w.put16(recycleCursor_);
    w.put64(segKey_.size());
    for (const auto &[seg, key] : segKey_) {
        w.put32(seg);
        w.put16(key);
    }
    w.put64(pageKey_.size());
    for (const auto &[vpn, key] : pageKey_) {
        w.put64(vpn);
        w.put16(key);
    }
    mem_.save(w);
}

void
PkeySystem::doLoad(snap::SnapReader &r)
{
    r.expectTag("pkeymodel");
    tlb_.load(r);
    keyCache_.load(r);
    r.expectTag("keytables");
    const u16 cursor = r.get16();
    if (cursor > config_.pkeys)
        SASOS_FATAL("corrupt snapshot: recycle cursor ", cursor,
                    " beyond the key space of ", config_.pkeys);
    recycleCursor_ = cursor;
    segKey_.clear();
    pageKey_.clear();
    bindings_.assign(config_.pkeys + 1, {});
    const u32 seg_count = r.getCount(6);
    for (u32 i = 0; i < seg_count; ++i) {
        const vm::SegmentId seg = r.get32();
        const u16 key = r.get16();
        if (key == 0 || key > config_.pkeys)
            SASOS_FATAL("corrupt snapshot: segment key id ", key,
                        " outside [1, ", config_.pkeys, "]");
        if (bindings_[key].kind != BindKind::Free)
            SASOS_FATAL("corrupt snapshot: key ", key, " bound twice");
        if (!segKey_.emplace(seg, key).second)
            SASOS_FATAL("corrupt snapshot: duplicate segment key entry");
        bindings_[key] = {BindKind::Segment, seg};
    }
    const u32 page_count = r.getCount(10);
    for (u32 i = 0; i < page_count; ++i) {
        const u64 vpn = r.get64();
        const u16 key = r.get16();
        if (key == 0 || key > config_.pkeys)
            SASOS_FATAL("corrupt snapshot: page key id ", key,
                        " outside [1, ", config_.pkeys, "]");
        if (bindings_[key].kind != BindKind::Free)
            SASOS_FATAL("corrupt snapshot: key ", key, " bound twice");
        if (!pageKey_.emplace(vpn, key).second)
            SASOS_FATAL("corrupt snapshot: duplicate page key entry");
        bindings_[key] = {BindKind::Page, vpn};
    }
    mem_.load(r);
}

} // namespace sasos::core
