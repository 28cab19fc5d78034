/**
 * @file
 * The hardware/OS protection contract.
 *
 * A ProtectionModel is the hardware side of one protection
 * organization (domain-page / page-group / conventional, plus the
 * protection-key register file). The kernel keeps the canonical
 * protection state -- per-domain protection tables over segments and
 * pages -- and calls the model's maintenance hooks whenever that state
 * changes; the model updates whatever caching structures it owns
 * (PLB, TLBs, page-group cache, key registers) and charges the cycles
 * those manipulations cost. The reference path (access()) performs
 * the model's hardware checks, resolving its own structure misses,
 * and reports faults for the kernel to handle. cachedRights() peeks
 * what those structures grant, for the oracles' hardware-within-
 * canonical check.
 *
 * Table 1 of the paper is precisely the difference between the
 * implementations of these hooks across models.
 */

#ifndef SASOS_OS_PROTECTION_MODEL_HH
#define SASOS_OS_PROTECTION_MODEL_HH

#include <optional>

#include "hw/tlb.hh" // DomainId, GroupId
#include "vm/address.hh"
#include "vm/rights.hh"
#include "vm/segment.hh"

namespace sasos::fault
{
class FaultInjector;
}

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::os
{

using hw::DomainId;
using hw::GroupId;

/** Why a reference could not complete in hardware. */
enum class FaultKind : u8
{
    None,
    /** Rights insufficient per the hardware's (refilled) state. */
    Protection,
    /** No translation exists for the page. */
    Translation,
};

/** Outcome of one reference through the model's hardware. */
struct AccessResult
{
    /** The reference completed. */
    bool completed = false;
    FaultKind fault = FaultKind::None;
};

/**
 * Abstract protection architecture.
 *
 * Every entry point that may change what the hardware caches -- the
 * maintenance hooks, refreshAfterFault, purgeForAck and load -- is a
 * public non-virtual that drops the same-page memo and then calls the
 * model's protected do* virtual. So no hook can forget the drop, and
 * a memo hit in access() never replays an entry a hook rewrote,
 * evicted or revoked.
 */
class ProtectionModel
{
  public:
    virtual ~ProtectionModel();

    virtual const char *name() const = 0;

    /**
     * Issue one reference from a domain: the model's one reference
     * path, traced or not, injected or not. The model resolves its
     * own structure misses (charging refill costs) and either
     * completes the reference or reports a fault. It must never
     * complete a reference whose required right the kernel has not
     * granted.
     *
     * Models with a same-page memo keep the previous reference's
     * protection-structure hit (entry, replacement location, rights)
     * and, when the next reference is from the same domain to the
     * same page, serve it from the memo: the same lookup/hit counts,
     * replacement touch and trace events as the probe it replaces,
     * so stats and cycles are those of a memo-free run.
     */
    virtual AccessResult access(DomainId domain, vm::VAddr va,
                                vm::AccessType type) = 0;

    /**
     * Forget the same-page memo. Every entry point below drops it
     * before the model runs, and access() drops it on a probe miss
     * and on an injected perturbation; anything that mutates hardware
     * structures behind the model's back -- a test poking a structure
     * directly -- must call this, so a stale memo can never leak
     * rights or touch a recycled slot.
     */
    void dropMemo() { memoKey_.valid = false; }

    /** @name Kernel-driven maintenance hooks
     * Called *after* the kernel has updated the canonical protection
     * state, so models may re-derive hardware state from it. Each
     * drops the memo, then runs the model's do* override.
     */
    /// @{
    void
    onAttach(DomainId domain, const vm::Segment &seg, vm::Access rights)
    {
        dropMemo();
        doAttach(domain, seg, rights);
    }
    void
    onDetach(DomainId domain, const vm::Segment &seg)
    {
        dropMemo();
        doDetach(domain, seg);
    }
    void
    onSetPageRights(DomainId domain, vm::Vpn vpn, vm::Access rights)
    {
        dropMemo();
        doSetPageRights(domain, vpn, rights);
    }
    /** A global mask now limits every domain to `rights` on the page
     * (rights == None during paging operations). */
    void
    onSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
    {
        dropMemo();
        doSetPageRightsAllDomains(vpn, rights);
    }
    /** The global mask was lifted; per-domain rights are canonical
     * again (models may purge and refill lazily). */
    void
    onClearPageRightsAllDomains(vm::Vpn vpn)
    {
        dropMemo();
        doClearPageRightsAllDomains(vpn);
    }
    void
    onSetSegmentRights(DomainId domain, const vm::Segment &seg,
                       vm::Access rights)
    {
        dropMemo();
        doSetSegmentRights(domain, seg, rights);
    }
    void
    onDomainSwitch(DomainId from, DomainId to)
    {
        dropMemo();
        doDomainSwitch(from, to);
    }
    void
    onPageMapped(vm::Vpn vpn, vm::Pfn pfn)
    {
        dropMemo();
        doPageMapped(vpn, pfn);
    }
    /** Purge translations and flush cached lines for an unmapped page. */
    void
    onPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
    {
        dropMemo();
        doPageUnmapped(vpn, pfn);
    }
    void
    onDomainDestroyed(DomainId domain)
    {
        dropMemo();
        doDomainDestroyed(domain);
    }
    void
    onSegmentDestroyed(const vm::Segment &seg)
    {
        dropMemo();
        doSegmentDestroyed(seg);
    }
    /// @}

    /**
     * Called when a reference protection-faulted but the canonical
     * state grants the right: hardware protection state was stale
     * (e.g. the page-group model must regroup a page toward the
     * faulting domain's view). The model repairs its structures and
     * returns true if retrying can succeed.
     */
    bool
    refreshAfterFault(DomainId domain, vm::Vpn vpn)
    {
        dropMemo();
        return doRefreshAfterFault(domain, vpn);
    }

    /**
     * The rights the model's cached hardware state grants this domain
     * on this page right now: None when nothing cached covers the
     * (domain, page) pair, so a cold structure peeks None. A pure
     * peek -- no stat, replacement stamp, memo or trace event moves,
     * and snapshot bytes stay the same. The safety invariant every
     * oracle checks is that this never exceeds the kernel's canonical
     * rights; it may lag below them.
     */
    virtual vm::Access cachedRights(DomainId domain, vm::Vpn vpn) const = 0;

    /**
     * The shootdown handler's conservative invalidation: a remote core
     * taking an IPI drops what its structures may still cache for
     * [first, first + pages) -- for `domain` only, where the model's
     * tags allow -- before it applies the deferred hook, so no entry
     * refilled under a transient grant outlives the ack. Charges
     * nothing (the caller charges the dispatch). @return entries
     * invalidated.
     */
    u64
    purgeForAck(std::optional<DomainId> domain, vm::Vpn first, u64 pages)
    {
        dropMemo();
        return doPurgeForAck(domain, first, pages);
    }

    /** @name Snapshot hooks
     * Serialize the model's cached hardware state (PLB, TLBs,
     * page-group cache, data cache, replacement state). The defaults
     * are no-ops for stateless models; every model owning hardware
     * structures overrides save() and doLoad().
     */
    /// @{
    virtual void save(snap::SnapWriter &w) const { (void)w; }
    void
    load(snap::SnapReader &r)
    {
        dropMemo();
        doLoad(r);
    }
    /// @}

    /**
     * Attach a fault injector whose schedule each access() consults
     * before issuing (null detaches). Injection only discards or
     * delays *cached* state, so it perturbs costs, never outcomes;
     * the differential oracle in src/fault enforces exactly that.
     */
    void setInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    fault::FaultInjector *injector() const { return injector_; }

  protected:
    /** @name What each model implements behind the entry points
     * Table 1 of the paper compares exactly these. */
    /// @{
    virtual void doAttach(DomainId domain, const vm::Segment &seg,
                          vm::Access rights) = 0;
    virtual void doDetach(DomainId domain, const vm::Segment &seg) = 0;
    virtual void doSetPageRights(DomainId domain, vm::Vpn vpn,
                                 vm::Access rights) = 0;
    virtual void doSetPageRightsAllDomains(vm::Vpn vpn,
                                           vm::Access rights) = 0;
    virtual void doClearPageRightsAllDomains(vm::Vpn vpn) = 0;
    virtual void doSetSegmentRights(DomainId domain, const vm::Segment &seg,
                                    vm::Access rights) = 0;
    virtual void doDomainSwitch(DomainId from, DomainId to) = 0;
    virtual void doPageMapped(vm::Vpn vpn, vm::Pfn pfn) = 0;
    virtual void doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn) = 0;
    virtual void doDomainDestroyed(DomainId domain) = 0;
    virtual void doSegmentDestroyed(const vm::Segment &seg) = 0;
    virtual bool doRefreshAfterFault(DomainId domain, vm::Vpn vpn) = 0;
    virtual u64 doPurgeForAck(std::optional<DomainId> domain,
                              vm::Vpn first, u64 pages) = 0;
    virtual void doLoad(snap::SnapReader &r) { (void)r; }
    /// @}

    /** @name The same-page memo's key
     * The model keeps the payload (entry, replacement locations,
     * rights); the key says which (domain, page) it resolved and
     * whether it is live. */
    /// @{
    bool
    memoHit(DomainId domain, vm::Vpn vpn) const
    {
        return memoKey_.valid && memoKey_.domain == domain &&
               memoKey_.vpn == vpn.number();
    }
    /** Key the memo to (domain, vpn); the caller sets the payload. */
    void
    memoize(DomainId domain, vm::Vpn vpn)
    {
        memoKey_ = {true, domain, vpn.number()};
    }
    /// @}

    /** Fault-injection schedule, or null when injection is off. */
    fault::FaultInjector *injector_ = nullptr;

  private:
    struct MemoKey
    {
        bool valid = false;
        DomainId domain = 0;
        u64 vpn = 0;
    };

    MemoKey memoKey_;
};

} // namespace sasos::os

#endif // SASOS_OS_PROTECTION_MODEL_HH
