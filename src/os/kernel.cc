#include "os/kernel.hh"

#include "obs/tracer.hh"
#include "os/pager.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::os
{

Kernel::Kernel(VmState &state, ProtectionModel &model,
               const CostModel &costs, CycleAccount &account,
               stats::Group *parent)
    : statsGroup(parent, "kernel"),
      domainSwitches(&statsGroup, "domainSwitches",
                     "protection domain switches"),
      attaches(&statsGroup, "attaches", "segment attach operations"),
      detaches(&statsGroup, "detaches", "segment detach operations"),
      rightsChanges(&statsGroup, "rightsChanges",
                    "protection manipulation operations"),
      protectionFaults(&statsGroup, "protectionFaults",
                       "protection faults taken"),
      translationFaults(&statsGroup, "translationFaults",
                        "translation faults taken"),
      staleFaults(&statsGroup, "staleFaults",
                  "faults caused by stale hardware state"),
      serverUpcalls(&statsGroup, "serverUpcalls",
                    "segment-server upcalls"),
      exceptions(&statsGroup, "exceptions",
                 "faults delivered as exceptions"),
      demandMaps(&statsGroup, "demandMaps", "demand-zero page mappings"),
      unmaps(&statsGroup, "unmaps", "pages unmapped"),
      faultRetries(&statsGroup, "faultRetries",
                   "faults resolved so the reference retries"),
      forks(&statsGroup, "forks", "copy-on-write segment forks"),
      cowFaults(&statsGroup, "cowFaults",
                "stores faulted on CoW-protected pages"),
      cowCopies(&statsGroup, "cowCopies",
                "CoW faults resolved by a private copy"),
      cowReuses(&statsGroup, "cowReuses",
                "CoW faults resolved in place (last sharer)"),
      state_(state), model_(model), costs_(costs), account_(account)
{
}

void
Kernel::charge(CostCategory category, Cycles cycles)
{
    account_.charge(category, cycles);
}

void
Kernel::chargeTrap()
{
    charge(CostCategory::Trap, costs_.kernelTrap);
}

DomainId
Kernel::createDomain(std::string name)
{
    chargeTrap();
    Domain &domain = state_.createDomain(std::move(name));
    if (current_ == 0)
        current_ = domain.id;
    return domain.id;
}

void
Kernel::destroyDomain(DomainId domain)
{
    chargeTrap();
    SASOS_ASSERT(domain != current_, "destroying the running domain");
    model_.onDomainDestroyed(domain);
    state_.destroyDomain(domain);
}

void
Kernel::switchTo(DomainId domain)
{
    if (domain == current_)
        return;
    ++domainSwitches;
    SASOS_OBS_EVENT(obs::EventKind::DomainSwitch,
                    account_.total().count(), current_, domain);
    charge(CostCategory::DomainSwitch, costs_.domainSwitchBase);
    const DomainId from = current_;
    current_ = domain;
    model_.onDomainSwitch(from, domain);
}

vm::SegmentId
Kernel::createSegment(std::string name, u64 pages, bool pow2_align)
{
    chargeTrap();
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    return state_.segments.create(std::move(name), pages, pow2_align);
}

void
Kernel::destroySegment(vm::SegmentId seg)
{
    chargeTrap();
    const vm::Segment *segment = state_.segments.find(seg);
    if (segment == nullptr)
        SASOS_FATAL("destroying unknown segment ", seg);
    // Unmap any mapped pages (flushing caches and purging TLBs).
    for (u64 i = 0; i < segment->pages; ++i) {
        const vm::Vpn vpn(segment->firstPage.number() + i);
        if (state_.pageTable.isMapped(vpn))
            unmapPage(vpn);
        onDisk_.erase(vpn);
        state_.clearPageMask(vpn);
    }
    // Detach every domain still attached.
    const std::set<DomainId> attached = state_.attachedDomains(seg);
    for (DomainId d : attached) {
        Domain &domain = state_.domain(d);
        domain.prot.detachSegment(*segment);
        state_.noteDetached(d, seg);
    }
    state_.forgetOverridesIn(segment->firstPage, segment->pages,
                             std::nullopt);
    model_.onSegmentDestroyed(*segment);
    servers_.erase(seg);
    state_.segments.destroy(seg);
}

void
Kernel::attach(DomainId domain, vm::SegmentId seg, vm::Access rights)
{
    chargeTrap();
    ++attaches;
    const vm::Segment *segment = state_.segments.find(seg);
    if (segment == nullptr)
        SASOS_FATAL("attaching unknown segment ", seg);
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    Domain &d = state_.domain(domain);
    if (d.prot.isAttached(seg)) {
        // Re-attach: semantically a grant replacement. The hardware
        // may hold entries with the old rights, so this takes the
        // (costlier) segment-rights-change path, not the O(1) attach.
        d.prot.setSegmentRights(seg, rights);
        model_.onSetSegmentRights(domain, *segment, rights);
        return;
    }
    d.prot.attachSegment(seg, rights);
    state_.noteAttached(domain, seg);
    model_.onAttach(domain, *segment, rights);
}

void
Kernel::detach(DomainId domain, vm::SegmentId seg)
{
    chargeTrap();
    ++detaches;
    const vm::Segment *segment = state_.segments.find(seg);
    if (segment == nullptr)
        SASOS_FATAL("detaching unknown segment ", seg);
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    state_.domain(domain).prot.detachSegment(*segment);
    state_.noteDetached(domain, seg);
    // The model sees the override index before it is pruned, so pages
    // whose only override belonged to this domain still regroup.
    model_.onDetach(domain, *segment);
    state_.forgetOverridesIn(segment->firstPage, segment->pages, domain);
}

void
Kernel::setSegmentServer(vm::SegmentId seg, SegmentServer *server)
{
    if (server == nullptr)
        servers_.erase(seg);
    else
        servers_[seg] = server;
}

vm::SegmentId
Kernel::forkSegmentCow(vm::SegmentId src, DomainId child,
                       vm::Access rights, std::string name)
{
    chargeTrap();
    ++forks;
    const vm::Segment *source = state_.segments.find(src);
    if (source == nullptr)
        SASOS_FATAL("forking unknown segment ", src);
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    const vm::SegmentId dst =
        state_.segments.create(std::move(name), source->pages, true);
    // segments.create may rehash; re-find both ends.
    source = state_.segments.find(src);
    const vm::Segment *dest = state_.segments.find(dst);
    SASOS_ASSERT(source != nullptr && dest != nullptr,
                 "fork lost its segments");
    // Attach the child to its copy (inline: the fork is one trap).
    ++attaches;
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    Domain &d = state_.domain(child);
    d.prot.attachSegment(dst, rights);
    state_.noteAttached(child, dst);
    model_.onAttach(child, *dest, rights);
    // Share every mapped source frame instead of copying it; both
    // ends of a pair are write-protected until a store resolves them.
    for (u64 i = 0; i < source->pages; ++i) {
        const vm::Vpn svpn(source->firstPage.number() + i);
        const vm::Translation *t = state_.pageTable.lookup(svpn);
        if (t == nullptr)
            continue; // untouched or on disk: child demand-zeros
        const vm::Vpn dvpn(dest->firstPage.number() + i);
        const vm::Pfn pfn = t->pfn;
        state_.frameAllocator.ref(pfn);
        charge(CostCategory::KernelWork, costs_.tableUpdate);
        state_.pageTable.mapShared(dvpn, pfn);
        model_.onPageMapped(dvpn, pfn);
        protectCowPage(svpn);
        protectCowPage(dvpn);
    }
    return dst;
}

bool
Kernel::isCowProtected(vm::Vpn vpn) const
{
    return cowPages_.count(vpn) != 0;
}

void
Kernel::protectCowPage(vm::Vpn vpn)
{
    if (!cowPages_.insert(vpn).second)
        return; // already protected by an earlier fork
    // The mask layer is single-slot: a CoW fork takes it over (any
    // paging-era restriction is superseded; resolveCow clears it).
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    state_.setPageMask(vpn, vm::Access::ReadExecute);
    model_.onSetPageRightsAllDomains(vpn, vm::Access::ReadExecute);
}

void
Kernel::resolveCow(vm::Vpn vpn)
{
    ++cowFaults;
    const vm::Translation *t = state_.pageTable.lookup(vpn);
    SASOS_ASSERT(t != nullptr, "CoW fault on unmapped page ",
                 vpn.number());
    const vm::Pfn shared = t->pfn;
    if (state_.frameAllocator.refCount(shared) > 1) {
        // Still shared: move this mapping to a private copy.
        model_.onPageUnmapped(vpn, shared);
        state_.pageTable.unmap(vpn);
        state_.frameAllocator.unref(shared);
        const vm::Pfn copy = allocateFrame();
        state_.pageTable.map(vpn, copy);
        charge(CostCategory::KernelWork, costs_.pageCopy);
        model_.onPageMapped(vpn, copy);
        ++cowCopies;
    } else {
        // Last sharer: the frame is already private.
        ++cowReuses;
    }
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    cowPages_.erase(vpn);
    state_.clearPageMask(vpn);
    model_.onClearPageRightsAllDomains(vpn);
}

void
Kernel::setPageRights(DomainId domain, vm::Vpn vpn, vm::Access rights)
{
    ++rightsChanges;
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    state_.domain(domain).prot.setPageRights(vpn, rights);
    state_.notePageOverride(domain, vpn);
    model_.onSetPageRights(domain, vpn, rights);
}

void
Kernel::clearPageRights(DomainId domain, vm::Vpn vpn)
{
    ++rightsChanges;
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    Domain &d = state_.domain(domain);
    d.prot.clearPageRights(vpn);
    state_.notePageOverrideCleared(domain, vpn);
    // The hardware hears the post-clear canonical rights.
    model_.onSetPageRights(domain, vpn,
                           state_.effectiveRights(domain, vpn));
}

void
Kernel::restrictPage(vm::Vpn vpn, vm::Access mask, DomainId exempt)
{
    ++rightsChanges;
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    state_.setPageMask(vpn, mask, exempt);
    model_.onSetPageRightsAllDomains(vpn, mask);
}

void
Kernel::unrestrictPage(vm::Vpn vpn)
{
    ++rightsChanges;
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    if (cowPages_.count(vpn) != 0) {
        // The page still awaits CoW resolution: lifting a paging-era
        // restriction re-establishes the kernel-owned write
        // protection instead of exposing the shared frame.
        state_.setPageMask(vpn, vm::Access::ReadExecute);
        model_.onSetPageRightsAllDomains(vpn, vm::Access::ReadExecute);
        return;
    }
    state_.clearPageMask(vpn);
    model_.onClearPageRightsAllDomains(vpn);
}

void
Kernel::setSegmentRights(DomainId domain, vm::SegmentId seg,
                         vm::Access rights)
{
    ++rightsChanges;
    const vm::Segment *segment = state_.segments.find(seg);
    if (segment == nullptr)
        SASOS_FATAL("segment rights on unknown segment ", seg);
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    state_.domain(domain).prot.setSegmentRights(seg, rights);
    model_.onSetSegmentRights(domain, *segment, rights);
}

bool
Kernel::isMapped(vm::Vpn vpn) const
{
    return state_.pageTable.isMapped(vpn);
}

vm::Pfn
Kernel::allocateFrame()
{
    auto frame = state_.frameAllocator.allocate();
    if (frame)
        return *frame;
    SASOS_ASSERT(pager_ != nullptr, "out of physical memory with no pager");
    // Evicting a CoW-shared page only drops a reference, so it can
    // take several evictions before a frame actually frees.
    for (u64 i = 0; i < state_.frameAllocator.capacity() && !frame; ++i) {
        pager_->evictOne();
        frame = state_.frameAllocator.allocate();
    }
    SASOS_ASSERT(frame, "pager failed to free a frame");
    return *frame;
}

void
Kernel::mapPage(vm::Vpn vpn)
{
    const vm::Pfn frame = allocateFrame();
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    state_.pageTable.map(vpn, frame);
    model_.onPageMapped(vpn, frame);
}

void
Kernel::unmapPage(vm::Vpn vpn)
{
    const vm::Translation *translation = state_.pageTable.lookup(vpn);
    SASOS_ASSERT(translation != nullptr, "unmapping unmapped page ",
                 vpn.number());
    ++unmaps;
    const vm::Pfn pfn = translation->pfn;
    charge(CostCategory::KernelWork, costs_.tableUpdate);
    model_.onPageUnmapped(vpn, pfn);
    state_.pageTable.unmap(vpn);
    // A CoW-shared frame survives until its last mapper goes.
    state_.frameAllocator.unref(pfn);
    if (cowPages_.erase(vpn) != 0) {
        // The translation is gone, so the missing mapping protects
        // the page now; drop the CoW mask so a future re-map starts
        // clean.
        state_.clearPageMask(vpn);
        model_.onClearPageRightsAllDomains(vpn);
    }
}

void
Kernel::markOnDisk(vm::Vpn vpn)
{
    onDisk_.insert(vpn);
}

void
Kernel::clearOnDisk(vm::Vpn vpn)
{
    onDisk_.erase(vpn);
}

bool
Kernel::isOnDisk(vm::Vpn vpn) const
{
    return onDisk_.count(vpn) != 0;
}

bool
Kernel::resolveAndRetry(DomainId domain, vm::VAddr va, vm::AccessType type,
                        AccessResult result)
{
    // A bounded retry loop: each fault either resolves (retry) or
    // becomes an exception. A single reference can legitimately fault
    // a handful of times (protection upcall, then page-in, then a
    // structure refill), but endless repetition is a model bug.
    // `result` is the non-completed outcome of the first attempt; at
    // most 7 further attempts are made (8 in total, as one reference
    // can never legitimately need more).
    SASOS_OBS_EVENT(obs::EventKind::KernelResolveBegin,
                    account_.total().count(), va.raw(), domain);
    for (int attempt = 1; ; ++attempt) {
        bool retry = false;
        switch (result.fault) {
          case FaultKind::Protection:
            retry = handleProtectionFault(domain, va, type);
            break;
          case FaultKind::Translation:
            retry = handleTranslationFault(domain, va, type);
            break;
          case FaultKind::None:
            SASOS_PANIC("incomplete access without a fault");
        }
        if (!retry) {
            SASOS_OBS_EVENT(obs::EventKind::KernelResolveEnd,
                            account_.total().count(), va.raw(), 0);
            return false;
        }
        if (attempt >= 8) {
            SASOS_PANIC("livelock resolving faults at address ", va.raw(),
                        " in domain ", domain);
        }
        result = model_.access(domain, va, type);
        if (result.completed) {
            SASOS_OBS_EVENT(obs::EventKind::KernelResolveEnd,
                            account_.total().count(), va.raw(), 1);
            return true;
        }
    }
}

bool
Kernel::handleProtectionFault(DomainId domain, vm::VAddr va,
                              vm::AccessType type)
{
    ++protectionFaults;
    SASOS_OBS_EVENT(obs::EventKind::ProtectionFault,
                    account_.total().count(), va.raw(), domain);
    chargeTrap();
    const vm::Vpn vpn = vm::pageOf(va);
    if (type == vm::AccessType::Store && cowPages_.count(vpn) != 0) {
        // A store against the CoW write protection. Legal iff the
        // domain's rights *without* the mask include Write -- then
        // this is the copy-on-write moment, not a real violation.
        const Domain *d = state_.findDomain(domain);
        const vm::Access unmasked =
            d == nullptr ? vm::Access::None
                         : d->prot.effectiveRights(vpn, state_.segments);
        if (vm::includes(unmasked, vm::Access::Write)) {
            resolveCow(vpn);
            ++faultRetries;
            SASOS_OBS_EVENT(obs::EventKind::FaultRetry,
                            account_.total().count(), va.raw(), domain);
            return true;
        }
    }
    const vm::Access canonical = state_.effectiveRights(domain, vpn);
    if (vm::includes(canonical, vm::requiredRight(type))) {
        // The kernel's tables grant the access; the hardware state
        // was stale (e.g. a page-group assignment must follow the
        // faulting domain). Repair and retry.
        ++staleFaults;
        if (model_.refreshAfterFault(domain, vpn)) {
            ++faultRetries;
            SASOS_OBS_EVENT(obs::EventKind::FaultRetry,
                            account_.total().count(), va.raw(), domain);
            return true;
        }
        ++exceptions;
        return false;
    }
    // Reflect to the segment's server, if any.
    const vm::Segment *segment = state_.segments.findByPage(vpn);
    if (segment != nullptr) {
        auto it = servers_.find(segment->id);
        if (it != servers_.end()) {
            ++serverUpcalls;
            charge(CostCategory::Upcall, costs_.serverUpcall);
            if (it->second->onProtectionFault(*this, domain, va, type)) {
                ++faultRetries;
                SASOS_OBS_EVENT(obs::EventKind::FaultRetry,
                                account_.total().count(), va.raw(),
                                domain);
                return true;
            }
        }
    }
    ++exceptions;
    return false;
}

bool
Kernel::handleTranslationFault(DomainId domain, vm::VAddr va,
                               vm::AccessType type)
{
    (void)domain;
    (void)type;
    ++translationFaults;
    SASOS_OBS_EVENT(obs::EventKind::TranslationFault,
                    account_.total().count(), va.raw(), domain);
    chargeTrap();
    const vm::Vpn vpn = vm::pageOf(va);
    SASOS_ASSERT(!state_.pageTable.isMapped(vpn),
                 "translation fault on mapped page");
    const vm::Segment *segment = state_.segments.findByPage(vpn);
    if (segment == nullptr) {
        // Reference outside any segment: deliver an exception.
        ++exceptions;
        return false;
    }
    if (isOnDisk(vpn)) {
        SASOS_ASSERT(pager_ != nullptr, "on-disk page with no pager");
        pager_->pageIn(vpn);
        ++faultRetries;
        SASOS_OBS_EVENT(obs::EventKind::FaultRetry,
                        account_.total().count(), va.raw(), domain);
        return true;
    }
    ++demandMaps;
    mapPage(vpn);
    ++faultRetries;
    SASOS_OBS_EVENT(obs::EventKind::FaultRetry, account_.total().count(),
                    va.raw(), domain);
    return true;
}

vm::Access
Kernel::canonicalRights(DomainId domain, vm::Vpn vpn) const
{
    return state_.effectiveRights(domain, vpn);
}

void
Kernel::save(snap::SnapWriter &w) const
{
    w.putTag("kernel");
    w.put16(current_);
    w.put64(onDisk_.size());
    for (vm::Vpn vpn : onDisk_)
        w.put64(vpn.number());
    w.put64(cowPages_.size());
    for (vm::Vpn vpn : cowPages_)
        w.put64(vpn.number());
}

void
Kernel::load(snap::SnapReader &r)
{
    r.expectTag("kernel");
    const DomainId current = static_cast<DomainId>(r.get16());
    if (current != 0 && state_.findDomain(current) == nullptr)
        SASOS_FATAL("corrupt snapshot: current domain ", current,
                    " does not exist");
    current_ = current;
    onDisk_.clear();
    const u32 on_disk = r.getCount(8);
    for (u32 i = 0; i < on_disk; ++i) {
        const vm::Vpn vpn(r.get64());
        if (!onDisk_.insert(vpn).second)
            SASOS_FATAL("corrupt snapshot: page ", vpn.number(),
                        " on disk twice");
    }
    cowPages_.clear();
    const u32 cow_pages = r.getCount(8);
    for (u32 i = 0; i < cow_pages; ++i) {
        const vm::Vpn vpn(r.get64());
        if (!state_.pageTable.isMapped(vpn))
            SASOS_FATAL("corrupt snapshot: CoW page ", vpn.number(),
                        " is not mapped");
        if (!cowPages_.insert(vpn).second)
            SASOS_FATAL("corrupt snapshot: page ", vpn.number(),
                        " CoW-protected twice");
    }
}

} // namespace sasos::os
