/**
 * @file
 * The conventional multiple-address-space baseline (Section 3.1).
 *
 * An ASID-tagged, software-loaded TLB (MIPS/Alpha style) whose entries
 * carry per-domain access rights alongside the translation. Running a
 * single address space OS on it works, but:
 *
 *  - sharing a page across N domains replicates its entry N times,
 *    shrinking the effective TLB;
 *  - rights changes affecting several domains must find and purge all
 *    replicas;
 *  - with ASIDs disabled (purgeTlbOnSwitch), every domain switch
 *    discards both protection *and* translation state, even though
 *    the translations are identical for all domains -- the paper's
 *    core criticism.
 */

#ifndef SASOS_CORE_CONVENTIONAL_SYSTEM_HH
#define SASOS_CORE_CONVENTIONAL_SYSTEM_HH

#include "core/mem_path.hh"
#include "core/system_config.hh"
#include "hw/data_cache.hh"
#include "hw/tlb.hh"
#include "os/protection_model.hh"
#include "os/vm_state.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{

/** ASID-tagged-TLB baseline. */
class ConventionalSystem : public os::ProtectionModel
{
  public:
    ConventionalSystem(const SystemConfig &config, os::VmState &state,
                       CycleAccount &account, stats::Group *parent);

    const char *
    name() const override
    {
        return config_.purgeTlbOnSwitch ? "conventional-purge"
                                        : "conventional";
    }

    os::AccessResult access(os::DomainId domain, vm::VAddr va,
                            vm::AccessType type) override;

    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;
    void save(snap::SnapWriter &w) const override;

    /** @name Structure access for tests and benches */
    /// @{
    hw::Tlb &tlb() { return tlb_; }
    hw::DataCache &cache() { return mem_.l1(); }
    MemoryPath &memory() { return mem_; }
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar protectionDenies;
    stats::Scalar translationFaultsSeen;
    stats::Scalar switchPurges;
    stats::Scalar switchCacheFlushes;
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

    /** The ASID used to tag entries (0 in purge-on-switch mode). */
    hw::DomainId tagOf(os::DomainId domain) const;

    /**
     * The same-page memo's payload: the previous reference's TLB hit.
     * Every path that may insert, evict or rewrite a TLB entry drops
     * the memo first (see ProtectionModel), so a memo hit guarantees
     * `entry` is still the live entry that resolved this (domain,
     * page).
     */
    struct SamePageMemo
    {
        hw::TlbEntry *entry = nullptr;
        hw::AssocLoc loc{};
    };

    SystemConfig config_;
    os::VmState &state_;
    CycleAccount &account_;
    hw::Tlb tlb_;
    MemoryPath mem_;
    SamePageMemo memo_;
    /** The domain the last switch hook switched to: in purge-on-switch
     * mode it alone owns the untagged TLB entries (cachedRights). 0,
     * no domain, until the first switch and after a load; it is not
     * serialized. */
    os::DomainId running_ = 0;
};

} // namespace sasos::core

#endif // SASOS_CORE_CONVENTIONAL_SYSTEM_HH
