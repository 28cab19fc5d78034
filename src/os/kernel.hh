/**
 * @file
 * The single address space kernel model (Opal-like).
 *
 * The kernel owns the canonical protection and translation state
 * (VmState) and drives exactly one ProtectionModel: every public
 * operation updates the canonical tables, charges its trap and
 * software costs, and invokes the model's maintenance hooks so the
 * hardware structures track the change. Protection faults are
 * reflected to user-level segment servers; translation faults are
 * satisfied by demand-zero mapping or by the paging server.
 *
 * Public operations model system calls (they charge a kernel trap);
 * servers running inside a fault handler use the do*() forms exposed
 * through handler context to avoid double-charging.
 */

#ifndef SASOS_OS_KERNEL_HH
#define SASOS_OS_KERNEL_HH

#include <set>
#include <unordered_map>

#include "os/protection_model.hh"
#include "os/segment_server.hh"
#include "os/vm_state.hh"
#include "sim/cost_model.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::os
{

class Pager;

/** The kernel: canonical state plus one protection model. */
class Kernel
{
  public:
    Kernel(VmState &state, ProtectionModel &model, const CostModel &costs,
           CycleAccount &account, stats::Group *parent);

    /** @name Protection domains */
    /// @{
    DomainId createDomain(std::string name);
    void destroyDomain(DomainId domain);
    DomainId currentDomain() const { return current_; }
    /** Switch the processor to another domain (RPC, scheduling). */
    void switchTo(DomainId domain);
    /// @}

    /** @name Virtual segments */
    /// @{
    vm::SegmentId createSegment(std::string name, u64 pages,
                                bool pow2_align = true);
    void destroySegment(vm::SegmentId seg);
    /** Grant a domain segment-level rights (Table 1: Attach). */
    void attach(DomainId domain, vm::SegmentId seg, vm::Access rights);
    /** Revoke a domain's grant (Table 1: Detach). */
    void detach(DomainId domain, vm::SegmentId seg);
    /** Register the user-level server for a segment's faults. */
    void setSegmentServer(vm::SegmentId seg, SegmentServer *server);
    /**
     * μFork-style copy-on-write fork of a segment: creates a same-size
     * segment, attaches `child` to it with `rights`, and shares every
     * mapped source frame (refcounted) instead of copying. Both ends
     * of each shared pair are write-protected through the page-mask
     * layer; the first store to either side takes a protection fault
     * that resolveCow() turns into a private copy (or a reuse when the
     * store hits the last sharer). Unmapped source pages stay unmapped
     * and demand-zero in the child on first touch.
     * @return the new (child) segment id.
     */
    vm::SegmentId forkSegmentCow(vm::SegmentId src, DomainId child,
                                 vm::Access rights, std::string name);
    /** True while a page awaits its copy-on-write resolution. */
    bool isCowProtected(vm::Vpn vpn) const;
    /// @}

    /** @name Rights manipulation (Table 1 applications) */
    /// @{
    /** Set one domain's rights to one page (page override). */
    void setPageRights(DomainId domain, vm::Vpn vpn, vm::Access rights);
    /** Drop the override; the segment grant applies again. */
    void clearPageRights(DomainId domain, vm::Vpn vpn);
    /** Restrict every domain to at most `mask` on a page (the
     * paging-operation exclusion; `exempt` bypasses, e.g. the paging
     * server). */
    void restrictPage(vm::Vpn vpn, vm::Access mask, DomainId exempt = 0);
    /** Lift the restriction. */
    void unrestrictPage(vm::Vpn vpn);
    /** Replace a domain's segment-level grant. */
    void setSegmentRights(DomainId domain, vm::SegmentId seg,
                          vm::Access rights);
    /// @}

    /** @name Mapping and paging */
    /// @{
    bool isMapped(vm::Vpn vpn) const;
    /** Allocate a frame and install the unique translation. */
    void mapPage(vm::Vpn vpn);
    /** Remove translation: purge TLBs, flush caches, free the frame. */
    void unmapPage(vm::Vpn vpn);
    void markOnDisk(vm::Vpn vpn);
    void clearOnDisk(vm::Vpn vpn);
    bool isOnDisk(vm::Vpn vpn) const;
    /** Register the paging server used for on-disk pages and frame
     * pressure. */
    void setPager(Pager *pager) { pager_ = pager; }
    Pager *pager() const { return pager_; }
    /// @}

    /** @name Fault handling (called by the machine's access loop) */
    /// @{
    /**
     * Hardware denied a reference. Repairs stale hardware state, or
     * upcalls the segment server. @return true to retry.
     */
    bool handleProtectionFault(DomainId domain, vm::VAddr va,
                               vm::AccessType type);
    /**
     * No translation for the page. Demand-zero maps or pages in.
     * @return true to retry.
     */
    bool handleTranslationFault(DomainId domain, vm::VAddr va,
                                vm::AccessType type);
    /**
     * Resolve the fault of a reference's first attempt (`result`)
     * through the handlers above, retrying the access on the model
     * bounded-many times. @return false if the fault became an
     * exception (the caller counts the failed reference).
     */
    bool resolveAndRetry(DomainId domain, vm::VAddr va, vm::AccessType type,
                         AccessResult result);
    /// @}

    /** Canonical (software-truth) rights of a domain on a page. */
    vm::Access canonicalRights(DomainId domain, vm::Vpn vpn) const;

    /** Charge cycles to the simulation account. */
    void charge(CostCategory category, Cycles cycles);

    VmState &state() { return state_; }
    const VmState &state() const { return state_; }
    ProtectionModel &model() { return model_; }
    const CostModel &costs() const { return costs_; }
    CycleAccount &account() { return account_; }

    /** @name Snapshot hooks
     * Serializes the current domain, the on-disk page set and the
     * CoW-pending page set; the
     * referenced VmState/model/account snapshot separately. Segment
     * server and pager registrations are runtime wiring, re-done by
     * the owner after load. */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar domainSwitches;
    stats::Scalar attaches;
    stats::Scalar detaches;
    stats::Scalar rightsChanges;
    stats::Scalar protectionFaults;
    stats::Scalar translationFaults;
    stats::Scalar staleFaults;
    stats::Scalar serverUpcalls;
    stats::Scalar exceptions;
    stats::Scalar demandMaps;
    stats::Scalar unmaps;
    /** Faults resolved so the reference retries (stale-state repairs,
     * server grants, demand maps, page-ins) -- under fault injection,
     * the recovery work the engine forced. */
    stats::Scalar faultRetries;
    /** @name Copy-on-write fork */
    /// @{
    stats::Scalar forks;
    stats::Scalar cowFaults;
    /** CoW faults resolved by copying to a private frame. */
    stats::Scalar cowCopies;
    /** CoW faults where the store hit the last sharer (no copy). */
    stats::Scalar cowReuses;
    /// @}
    /// @}

  private:
    void chargeTrap();

    /** Allocate a frame, looping pager evictions under pressure (an
     * eviction of a CoW-shared page drops a reference without freeing
     * the frame, so one eviction is not always enough). */
    vm::Pfn allocateFrame();

    /** Write-protect a page pending CoW resolution. */
    void protectCowPage(vm::Vpn vpn);

    /** First store to a CoW page: privatize the frame (copy or
     * last-sharer reuse) and lift the write protection. */
    void resolveCow(vm::Vpn vpn);

    VmState &state_;
    ProtectionModel &model_;
    const CostModel &costs_;
    CycleAccount &account_;

    DomainId current_ = 0;
    std::unordered_map<vm::SegmentId, SegmentServer *> servers_;
    std::set<vm::Vpn> onDisk_;
    /** Pages write-protected pending copy-on-write resolution. */
    std::set<vm::Vpn> cowPages_;
    Pager *pager_ = nullptr;
};

} // namespace sasos::os

#endif // SASOS_OS_KERNEL_HH
