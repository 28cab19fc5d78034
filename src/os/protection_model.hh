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

/** Abstract protection architecture. */
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
     * Forget the same-page memo. The model's own maintenance hooks,
     * probe misses, injected perturbations and purgeForAck drop it
     * internally; anything that mutates hardware structures behind
     * the model's back -- a test poking a structure directly -- must
     * call this, so a stale memo can never leak
     * rights or touch a recycled slot. The default is a no-op for
     * models without a memo.
     */
    virtual void dropMemo() {}

    /** @name Kernel-driven maintenance hooks
     * Called *after* the kernel has updated the canonical protection
     * state, so models may re-derive hardware state from it.
     */
    /// @{
    virtual void onAttach(DomainId domain, const vm::Segment &seg,
                          vm::Access rights) = 0;
    virtual void onDetach(DomainId domain, const vm::Segment &seg) = 0;
    virtual void onSetPageRights(DomainId domain, vm::Vpn vpn,
                                 vm::Access rights) = 0;
    /** A global mask now limits every domain to `rights` on the page
     * (rights == None during paging operations). */
    virtual void onSetPageRightsAllDomains(vm::Vpn vpn,
                                           vm::Access rights) = 0;
    /** The global mask was lifted; per-domain rights are canonical
     * again (models may purge and refill lazily). */
    virtual void onClearPageRightsAllDomains(vm::Vpn vpn) = 0;
    virtual void onSetSegmentRights(DomainId domain, const vm::Segment &seg,
                                    vm::Access rights) = 0;
    virtual void onDomainSwitch(DomainId from, DomainId to) = 0;
    virtual void onPageMapped(vm::Vpn vpn, vm::Pfn pfn) = 0;
    /** Purge translations and flush cached lines for an unmapped page. */
    virtual void onPageUnmapped(vm::Vpn vpn, vm::Pfn pfn) = 0;
    virtual void onDomainDestroyed(DomainId domain) = 0;
    virtual void onSegmentDestroyed(const vm::Segment &seg) = 0;
    /// @}

    /**
     * Called when a reference protection-faulted but the canonical
     * state grants the right: hardware protection state was stale
     * (e.g. the page-group model must regroup a page toward the
     * faulting domain's view). The model repairs its structures and
     * returns true if retrying can succeed.
     */
    virtual bool refreshAfterFault(DomainId domain, vm::Vpn vpn) = 0;

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
     * nothing (the caller charges the dispatch) and drops the
     * same-page memo. @return entries invalidated.
     */
    virtual u64 purgeForAck(std::optional<DomainId> domain, vm::Vpn first,
                            u64 pages) = 0;

    /** @name Snapshot hooks
     * Serialize the model's cached hardware state (PLB, TLBs,
     * page-group cache, data cache, replacement state). The defaults
     * are no-ops for stateless models; every model owning hardware
     * structures overrides both.
     */
    /// @{
    virtual void save(snap::SnapWriter &w) const { (void)w; }
    virtual void load(snap::SnapReader &r) { (void)r; }
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
    /** Fault-injection schedule, or null when injection is off. */
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace sasos::os

#endif // SASOS_OS_PROTECTION_MODEL_HH
