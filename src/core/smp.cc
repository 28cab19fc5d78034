#include "core/smp.hh"

#include "obs/tracer.hh"
#include "sim/logging.hh"

namespace sasos::core
{

SmpSystem::SmpSystem(const SystemConfig &config, unsigned cpus)
    : config_(config), statsRoot_("smp-system"),
      smpGroup(&statsRoot_, "smp"),
      shootdowns(&smpGroup, "shootdowns",
                 "broadcast maintenance operations"),
      ipisSent(&smpGroup, "ipisSent", "inter-processor interrupts sent"),
      state_(config.frames)
{
    SASOS_ASSERT(cpus >= 1, "a machine needs at least one CPU");
    models_ = std::make_unique<PerCoreModels>(
        config_, state_, account_,
        [this](MaintenanceOp apply, vm::Vpn, u64,
               std::optional<os::DomainId>) { deliver(apply); });
    for (unsigned cpu = 0; cpu < cpus; ++cpu)
        models_->addCore(&smpGroup, "cpu" + std::to_string(cpu));
    kernel_ = std::make_unique<os::Kernel>(state_, *models_, config_.costs,
                                           account_, &statsRoot_);
}

void
SmpSystem::deliver(const MaintenanceOp &apply)
{
    // A single CPU has nobody to interrupt, and counts no shootdown.
    if (cpuCount() > 1) {
        const u64 remotes = cpuCount() - 1;
        ++shootdowns;
        ipisSent += remotes;
        SASOS_OBS_EVENT(obs::EventKind::Shootdown, account_.total().count(),
                        0, remotes);
        account_.charge(CostCategory::KernelWork,
                        remotes * config_.costs.interProcessorInterrupt);
    }
    for (unsigned cpu = 0; cpu < cpuCount(); ++cpu)
        apply(models_->core(cpu));
}

void
SmpSystem::runOn(unsigned cpu, os::DomainId domain)
{
    models_->setCurrent(cpu);
    kernel_->switchTo(domain);
}

bool
SmpSystem::access(vm::VAddr va, vm::AccessType type)
{
    const os::DomainId domain = kernel_->currentDomain();
    SASOS_ASSERT(domain != 0, "no current domain; create one first");
    const os::AccessResult result = models_->access(domain, va, type);
    return result.completed ||
           kernel_->resolveAndRetry(domain, va, type, result);
}

} // namespace sasos::core
