/**
 * @file
 * The domain-page model machine: PLB + VIVT cache + off-chip TLB.
 *
 * This is the paper's proposed organization (Section 3.2.1, Figure 1):
 * on every reference the PLB and the virtually indexed, virtually
 * tagged data cache are probed in parallel; the PLB supplies the
 * current domain's rights to the page, the cache supplies the data.
 * Translation is needed only on cache misses and dirty writebacks and
 * is served by a translation-only TLB at the second level, off the
 * critical path.
 *
 * Consequences modeled here, each measured by a bench:
 *  - domain switch = one register write (the PD-ID register);
 *  - rights changes for one (domain, page) = one indexed PLB update;
 *  - rights changes spanning domains or ranges = a PLB scan;
 *  - segment detach = a PLB scan;
 *  - unmap leaves the PLB alone (stale entries are safe: the flushed
 *    cache and purged TLB force a translation fault);
 *  - sharing replicates PLB entries per domain;
 *  - super-page entries can cover an aligned segment.
 */

#ifndef SASOS_CORE_PLB_SYSTEM_HH
#define SASOS_CORE_PLB_SYSTEM_HH

#include <memory>

#include "core/mem_path.hh"
#include "core/system_config.hh"
#include "hw/cluster_plb.hh"
#include "hw/data_cache.hh"
#include "hw/plb.hh"
#include "hw/tlb.hh"
#include "os/protection_model.hh"
#include "os/vm_state.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{

/** The PLB-based protection system. */
class PlbSystem : public os::ProtectionModel
{
  public:
    PlbSystem(const SystemConfig &config, os::VmState &state,
              CycleAccount &account, stats::Group *parent);

    const char *name() const override { return "plb"; }

    os::AccessResult access(os::DomainId domain, vm::VAddr va,
                            vm::AccessType type) override;

    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;
    void save(snap::SnapWriter &w) const override;

    /** @name Structure access for tests and benches
     * plb() is the flat engine and asserts flat mode; clustered-mode
     * callers go through clusterPlb() or the engine-agnostic
     * prot*() dispatchers below. */
    /// @{
    bool clustered() const { return clplb_ != nullptr; }
    hw::Plb &
    plb()
    {
        SASOS_ASSERT(plb_ != nullptr,
                     "flat plb() accessor on a clustered PLB system");
        return *plb_;
    }
    hw::ClusterPlb *clusterPlb() { return clplb_.get(); }
    hw::Tlb &translationTlb() { return tlb_; }
    hw::DataCache &cache() { return mem_.l1(); }
    MemoryPath &memory() { return mem_; }
    /// @}

    /** @name Engine-agnostic protection-structure stats
     * (the workloads report them over either organization) */
    /// @{
    std::size_t protOccupancy() const;
    /** Probe misses (cluster-level totals in clustered mode). */
    u64 protMisses() const;
    /** Maintenance-scan entry visits, summed over banks. */
    u64 protPurgeScans() const;
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar protectionDenies;
    stats::Scalar translationFaultsSeen;
    stats::Scalar superPageFills;
    stats::Scalar pageFills;
    stats::Scalar writebackTranslations;
    /// @}

  protected:
    void doAttach(os::DomainId domain, const vm::Segment &seg,
                  vm::Access rights) override;
    void doDetach(os::DomainId domain, const vm::Segment &seg) override;
    void doSetPageRights(os::DomainId domain, vm::Vpn vpn,
                         vm::Access rights) override;
    void doSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights) override;
    void doClearPageRightsAllDomains(vm::Vpn vpn) override;
    void doSetSegmentRights(os::DomainId domain, const vm::Segment &seg,
                            vm::Access rights) override;
    void doDomainSwitch(os::DomainId from, os::DomainId to) override;
    void doPageMapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void doPageUnmapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void doDomainDestroyed(os::DomainId domain) override;
    void doSegmentDestroyed(const vm::Segment &seg) override;
    bool doRefreshAfterFault(os::DomainId domain, vm::Vpn vpn) override;
    u64 doPurgeForAck(std::optional<os::DomainId> domain, vm::Vpn first,
                      u64 pages) override;
    void doLoad(snap::SnapReader &r) override;

  private:
    void charge(CostCategory category, Cycles cycles);

    /** @name Engine-agnostic protection-structure dispatch */
    /// @{
    hw::PurgeResult protPurgeRange(std::optional<hw::DomainId> domain,
                                   vm::Vpn first, u64 pages);
    std::optional<hw::PlbMatch> protPeek(os::DomainId domain,
                                         vm::VAddr va) const;
    /// @}

    /** The protection-side probe of access(): replay the memo on a
     * same-page run, else look the PLB up (memoizing a hit).
     * @return the granted rights on a hit, nullopt on a PLB miss. */
    std::optional<vm::Access> probeProtection(os::DomainId domain,
                                              vm::VAddr va);

    /** Resolve a virtual address through the off-chip TLB; nullopt if
     * the page is unmapped. Charges lookup + refill costs. */
    std::optional<vm::Pfn> translateOffChip(vm::Vpn vpn);

    /** Choose the protection block size for a PLB refill. */
    int refillShift(os::DomainId domain, vm::Vpn vpn,
                    const vm::Segment *seg) const;

    /**
     * The same-page memo's payload: the previous reference's PLB hit.
     * A memo hit guarantees the entry at `loc` is still the one that
     * granted `rights`, because every path that may insert, evict or
     * rewrite a PLB entry drops the memo first (see ProtectionModel).
     */
    struct SamePageMemo
    {
        vm::Access rights = vm::Access::None;
        hw::AssocLoc loc{};
    };

    /** Run `fn` against whichever protection engine is live. Both
     * engines share the maintenance/probe surface, so call sites stay
     * organization-blind. */
    template <typename Fn>
    auto
    withEngine(Fn &&fn)
    {
        return clplb_ != nullptr ? fn(*clplb_) : fn(*plb_);
    }
    template <typename Fn>
    auto
    withEngine(Fn &&fn) const
    {
        return clplb_ != nullptr
                   ? fn(static_cast<const hw::ClusterPlb &>(*clplb_))
                   : fn(static_cast<const hw::Plb &>(*plb_));
    }

    SystemConfig config_;
    os::VmState &state_;
    CycleAccount &account_;
    /** Exactly one of the two engines is live: the flat PLB
     * (plb_clusters=1, the default) or the clustered one. */
    std::unique_ptr<hw::Plb> plb_;
    std::unique_ptr<hw::ClusterPlb> clplb_;
    hw::Tlb tlb_;
    MemoryPath mem_;
    SamePageMemo memo_;
    /** Cached plb_.pageUniform(): sub-page block classes make a
     * VPN-grain memo unsound, so memoization is disabled. */
    bool plbPageUniform_ = false;
};

} // namespace sasos::core

#endif // SASOS_CORE_PLB_SYSTEM_HH
