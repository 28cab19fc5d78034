/**
 * @file
 * The page-group model machine: PA-RISC-style protection (Figure 2)
 * with the Wilkes & Sears LRU page-group cache.
 *
 * On every reference the on-chip TLB supplies the translation, the
 * page's access identifier (AID) and the group-wide Rights field; the
 * page-group cache then decides whether the executing domain may use
 * that group (with the per-domain write-disable bit). The two lookups
 * are sequential -- the second depends on the first -- which is the
 * cycle-time concern of Section 4.2 (bench_fig2).
 *
 * The grouping itself is policy, supplied by os::PageGroupManager:
 * segment = default group (attach/detach are O(1)), diverging pages
 * split into vector-keyed groups, inexpressible vectors alternate
 * between groups on faults.
 */

#ifndef SASOS_CORE_PAGEGROUP_SYSTEM_HH
#define SASOS_CORE_PAGEGROUP_SYSTEM_HH

#include <map>

#include "core/mem_path.hh"
#include "core/system_config.hh"
#include "hw/data_cache.hh"
#include "hw/pagegroup_cache.hh"
#include "hw/tlb.hh"
#include "os/page_group_manager.hh"
#include "os/protection_model.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{

/** The page-group protection system. */
class PageGroupSystem : public os::ProtectionModel
{
  public:
    PageGroupSystem(const SystemConfig &config, os::VmState &state,
                    CycleAccount &account, stats::Group *parent);

    const char *name() const override { return "page-group"; }

    os::AccessResult access(os::DomainId domain, vm::VAddr va,
                            vm::AccessType type) override;

    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;
    void save(snap::SnapWriter &w) const override;

    /** @name Structure access for tests and benches */
    /// @{
    hw::Tlb &tlb() { return tlb_; }
    hw::PageGroupCache &pageGroupCache() { return pgCache_; }
    hw::DataCache &cache() { return mem_.l1(); }
    MemoryPath &memory() { return mem_; }
    os::PageGroupManager &manager() { return manager_; }
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar protectionDenies;
    stats::Scalar translationFaultsSeen;
    stats::Scalar pgCacheRefills;
    stats::Scalar groupMoves;
    stats::Scalar eagerReloads;
    stats::Scalar unionPurges;
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

    /** Current domain, tracked from switch hooks for membership. */
    os::DomainId current_ = 0;

    /** Update (or drop) the TLB entry after a page regroups. */
    void syncTlbEntry(vm::Vpn vpn, const os::PageGroupState &st);

    /** Purge segment TLB entries when the default union changes. */
    void checkUnionChanged(const vm::Segment &seg);

    /** Pages of a segment that a segment-wide rights change must
     * individually regroup. */
    std::vector<vm::Vpn> regroupCandidates(const vm::Segment &seg) const;

    /**
     * The same-page memo's payload: the previous reference's TLB and
     * page-group hits. Every path that may insert, evict or rewrite a
     * TLB or page-group entry drops the memo first (see
     * ProtectionModel; a freed group drops it too), so a memo hit
     * guarantees `entry` and both replacement locations are still
     * live. The TLB entry pointer is stable because the backing
     * payload vector never reallocates and slot reuse only happens on
     * inserts.
     */
    struct SamePageMemo
    {
        hw::TlbEntry *entry = nullptr;
        hw::AssocLoc tlbLoc{};
        /** Unused for group 0, whose check never probes the array. */
        hw::AssocLoc pgLoc{};
        bool writeDisable = false;
    };

    SystemConfig config_;
    os::VmState &state_;
    CycleAccount &account_;
    os::PageGroupManager manager_;
    hw::Tlb tlb_;
    hw::PageGroupCache pgCache_;
    MemoryPath mem_;
    SamePageMemo memo_;
    /** Last Rights-field union seen per segment's default group. */
    std::map<vm::SegmentId, vm::Access> lastUnion_;
};

} // namespace sasos::core

#endif // SASOS_CORE_PAGEGROUP_SYSTEM_HH
