/**
 * @file
 * Multiprocessor extension: per-CPU protection hardware over shared
 * kernel state.
 *
 * Section 4.1.3 notes that unmapping "is done with a small number of
 * instructions on each processor": on a multiprocessor, every CPU has
 * its own PLB / TLB / page-group cache / caches, and any protection
 * or translation change must be *shot down* on all of them, paying an
 * inter-processor interrupt per remote CPU plus that CPU's own
 * structure maintenance.
 *
 * BroadcastModel implements the ProtectionModel contract by fanning
 * kernel maintenance hooks out to one concrete model per CPU; the
 * reference path and per-CPU operations (domain switch, fault repair)
 * go only to the issuing CPU. SmpSystem is the multiprocessor
 * counterpart of System: one kernel, one canonical VmState, N CPUs,
 * with `runOn(cpu)` selecting the issuing processor.
 */

#ifndef SASOS_CORE_SMP_HH
#define SASOS_CORE_SMP_HH

#include <memory>
#include <vector>

#include "core/conventional_system.hh"
#include "core/pagegroup_system.hh"
#include "core/pkey_system.hh"
#include "core/plb_system.hh"
#include "core/system_config.hh"
#include "os/kernel.hh"

namespace sasos::core
{

/** Fans maintenance hooks out to one protection model per CPU. */
class BroadcastModel : public os::ProtectionModel
{
  public:
    BroadcastModel(const SystemConfig &config, unsigned cpus,
                   os::VmState &state, CycleAccount &account,
                   stats::Group *parent);
    ~BroadcastModel() override;

    const char *name() const override { return "smp-broadcast"; }

    /** Select the CPU that issues references and local operations. */
    void setCurrentCpu(unsigned cpu);
    unsigned currentCpu() const { return current_; }
    unsigned cpuCount() const { return static_cast<unsigned>(cpus_.size()); }

    /** The concrete model of one CPU (for stats and tests). */
    os::ProtectionModel &cpu(unsigned index);

    os::AccessResult access(os::DomainId domain, vm::VAddr va,
                            vm::AccessType type) override;

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

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar shootdowns;
    stats::Scalar ipisSent;
    /// @}

  private:
    /** Charge the IPIs for interrupting every remote CPU. */
    void chargeShootdown();

    template <typename Fn>
    void
    broadcast(Fn fn)
    {
        chargeShootdown();
        for (auto &model : cpus_)
            fn(*model);
    }

    const SystemConfig &config_;
    CycleAccount &account_;
    /** Groups outlive the models that register stats into them. */
    std::vector<std::unique_ptr<stats::Group>> cpuGroups_;
    std::vector<std::unique_ptr<os::ProtectionModel>> cpus_;
    unsigned current_ = 0;
};

/** A shared-memory multiprocessor running the SASOS kernel. */
class SmpSystem
{
  public:
    SmpSystem(const SystemConfig &config, unsigned cpus);

    SmpSystem(const SmpSystem &) = delete;
    SmpSystem &operator=(const SmpSystem &) = delete;

    unsigned cpuCount() const { return broadcast_->cpuCount(); }

    /**
     * Make `cpu` the issuing processor and schedule `domain` on it.
     * (Domains are typically pinned one per CPU, e.g. DSM nodes.)
     */
    void runOn(unsigned cpu, os::DomainId domain);

    /** Issue a reference from the current CPU's current domain. */
    bool access(vm::VAddr va, vm::AccessType type);
    bool load(vm::VAddr va) { return access(va, vm::AccessType::Load); }
    bool store(vm::VAddr va) { return access(va, vm::AccessType::Store); }

    os::Kernel &kernel() { return *kernel_; }
    os::VmState &state() { return state_; }
    BroadcastModel &broadcast() { return *broadcast_; }
    CycleAccount &account() { return account_; }
    const CostModel &costs() const { return config_.costs; }
    Cycles cycles() const { return account_.total(); }
    stats::Group &statsRoot() { return statsRoot_; }

  private:
    SystemConfig config_;
    stats::Group statsRoot_;
    CycleAccount account_;
    os::VmState state_;
    std::unique_ptr<BroadcastModel> broadcast_;
    std::unique_ptr<os::Kernel> kernel_;
};

} // namespace sasos::core

#endif // SASOS_CORE_SMP_HH
