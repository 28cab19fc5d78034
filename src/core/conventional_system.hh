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

    /** Drop the same-page memo (see ProtectionModel::dropMemo). */
    void dropMemo() override { memo_.valid = false; }

    void onAttach(os::DomainId domain, const vm::Segment &seg,
                  vm::Access rights) override;
    void onDetach(os::DomainId domain, const vm::Segment &seg) override;
    void onSetPageRights(os::DomainId domain, vm::Vpn vpn,
                         vm::Access rights) override;
    void onSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights) override;
    void onClearPageRightsAllDomains(vm::Vpn vpn) override;
    void onSetSegmentRights(os::DomainId domain, const vm::Segment &seg,
                            vm::Access rights) override;
    void onDomainSwitch(os::DomainId from, os::DomainId to) override;
    void onPageMapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void onPageUnmapped(vm::Vpn vpn, vm::Pfn pfn) override;
    void onDomainDestroyed(os::DomainId domain) override;
    void onSegmentDestroyed(const vm::Segment &seg) override;
    bool refreshAfterFault(os::DomainId domain, vm::Vpn vpn) override;
    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;
    u64 purgeForAck(std::optional<os::DomainId> domain, vm::Vpn first,
                    u64 pages) override;

    void save(snap::SnapWriter &w) const override;
    void load(snap::SnapReader &r) override;

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

  private:
    void charge(CostCategory category, Cycles cycles);

    /** Apply one injected perturbation to this machine's structures.
     * @return true if the reference must raise a transient fault. */
    bool applyPerturbation(const fault::Perturbation &p);

    /** The ASID used to tag entries (0 in purge-on-switch mode). */
    hw::DomainId tagOf(os::DomainId domain) const;

    /**
     * The same-page memo: the previous reference's TLB hit. Every
     * path that may insert, evict or rewrite a TLB entry drops it
     * first (a probe miss, every maintenance hook, injected
     * perturbations and dropMemo()), so a match guarantees `entry` is
     * still the live entry that resolved this (domain, page).
     */
    struct SamePageMemo
    {
        bool valid = false;
        os::DomainId domain = 0;
        u64 vpn = 0;
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
