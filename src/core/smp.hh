/**
 * @file
 * The synchronous multiprocessor: per-CPU protection hardware over
 * shared kernel state, every shootdown delivered at once.
 *
 * SmpSystem is the multiprocessor counterpart of System: one kernel,
 * one canonical VmState, N CPUs whose models sit behind one
 * PerCoreModels fan-out, with `runOn(cpu)` selecting the issuing
 * processor. A maintenance hook pays an inter-processor interrupt per
 * remote CPU and is applied to every CPU's structures immediately;
 * McSystem (mc/mc_system.hh) models the deferred delivery, with its
 * stale-rights window and per-ack dispatch charge.
 */

#ifndef SASOS_CORE_SMP_HH
#define SASOS_CORE_SMP_HH

#include <memory>

#include "core/per_core_models.hh"
#include "os/kernel.hh"

namespace sasos::core
{

/** A shared-memory multiprocessor running the SASOS kernel. */
class SmpSystem
{
  public:
    SmpSystem(const SystemConfig &config, unsigned cpus);

    SmpSystem(const SmpSystem &) = delete;
    SmpSystem &operator=(const SmpSystem &) = delete;

    unsigned cpuCount() const { return models_->count(); }

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
    PerCoreModels &models() { return *models_; }
    CycleAccount &account() { return account_; }
    const CostModel &costs() const { return config_.costs; }
    Cycles cycles() const { return account_.total(); }
    stats::Group &statsRoot() { return statsRoot_; }

  private:
    /** Interrupt every remote CPU, then apply the op on every CPU. */
    void deliver(const MaintenanceOp &apply);

    SystemConfig config_;
    stats::Group statsRoot_;

  public:
    /** @name Statistics */
    /// @{
    stats::Group smpGroup;
    stats::Scalar shootdowns;
    stats::Scalar ipisSent;
    /// @}

  private:
    CycleAccount account_;
    os::VmState state_;
    std::unique_ptr<PerCoreModels> models_;
    std::unique_ptr<os::Kernel> kernel_;
};

} // namespace sasos::core

#endif // SASOS_CORE_SMP_HH
