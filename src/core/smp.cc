#include "core/smp.hh"

#include "obs/tracer.hh"
#include "sim/logging.hh"

namespace sasos::core
{

namespace
{

std::unique_ptr<os::ProtectionModel>
makeCpuModel(const SystemConfig &config, os::VmState &state,
             CycleAccount &account, stats::Group *parent)
{
    switch (config.model) {
      case ModelKind::Plb:
        return std::make_unique<PlbSystem>(config, state, account, parent);
      case ModelKind::PageGroup:
        return std::make_unique<PageGroupSystem>(config, state, account,
                                                 parent);
      case ModelKind::Conventional:
        return std::make_unique<ConventionalSystem>(config, state, account,
                                                    parent);
      case ModelKind::Pkey:
        return std::make_unique<PkeySystem>(config, state, account, parent);
    }
    SASOS_PANIC("unreachable");
}

} // namespace

BroadcastModel::BroadcastModel(const SystemConfig &config, unsigned cpus,
                               os::VmState &state, CycleAccount &account,
                               stats::Group *parent)
    : statsGroup(parent, "smp"),
      shootdowns(&statsGroup, "shootdowns",
                 "broadcast maintenance operations"),
      ipisSent(&statsGroup, "ipisSent",
               "inter-processor interrupts sent"),
      config_(config), account_(account)
{
    SASOS_ASSERT(cpus >= 1, "a machine needs at least one CPU");
    for (unsigned cpu = 0; cpu < cpus; ++cpu) {
        cpuGroups_.push_back(std::make_unique<stats::Group>(
            &statsGroup, "cpu" + std::to_string(cpu)));
        cpus_.push_back(makeCpuModel(config, state, account,
                                     cpuGroups_.back().get()));
    }
}

BroadcastModel::~BroadcastModel() = default;

void
BroadcastModel::setCurrentCpu(unsigned cpu)
{
    SASOS_ASSERT(cpu < cpus_.size(), "no CPU ", cpu);
    current_ = cpu;
}

os::ProtectionModel &
BroadcastModel::cpu(unsigned index)
{
    SASOS_ASSERT(index < cpus_.size(), "no CPU ", index);
    return *cpus_[index];
}

void
BroadcastModel::chargeShootdown()
{
    ++shootdowns;
    SASOS_OBS_EVENT(obs::EventKind::Shootdown, account_.total().count(), 0,
                    cpus_.size() - 1);
    if (cpus_.size() > 1) {
        const u64 remotes = cpus_.size() - 1;
        ipisSent += remotes;
        account_.charge(CostCategory::KernelWork,
                        remotes * config_.costs.interProcessorInterrupt);
    }
}

os::AccessResult
BroadcastModel::access(os::DomainId domain, vm::VAddr va,
                       vm::AccessType type)
{
    return cpus_[current_]->access(domain, va, type);
}

void
BroadcastModel::onAttach(os::DomainId domain, const vm::Segment &seg,
                         vm::Access rights)
{
    // Attach touches no per-page hardware state on any model; only
    // the issuing CPU's structures (e.g. its PID cache) see it.
    cpus_[current_]->onAttach(domain, seg, rights);
}

void
BroadcastModel::onDetach(os::DomainId domain, const vm::Segment &seg)
{
    broadcast([&](os::ProtectionModel &m) { m.onDetach(domain, seg); });
}

void
BroadcastModel::onSetPageRights(os::DomainId domain, vm::Vpn vpn,
                                vm::Access rights)
{
    broadcast([&](os::ProtectionModel &m) {
        m.onSetPageRights(domain, vpn, rights);
    });
}

void
BroadcastModel::onSetPageRightsAllDomains(vm::Vpn vpn, vm::Access rights)
{
    broadcast([&](os::ProtectionModel &m) {
        m.onSetPageRightsAllDomains(vpn, rights);
    });
}

void
BroadcastModel::onClearPageRightsAllDomains(vm::Vpn vpn)
{
    broadcast([&](os::ProtectionModel &m) {
        m.onClearPageRightsAllDomains(vpn);
    });
}

void
BroadcastModel::onSetSegmentRights(os::DomainId domain,
                                   const vm::Segment &seg,
                                   vm::Access rights)
{
    broadcast([&](os::ProtectionModel &m) {
        m.onSetSegmentRights(domain, seg, rights);
    });
}

void
BroadcastModel::onDomainSwitch(os::DomainId from, os::DomainId to)
{
    // A switch is local to the processor it happens on.
    cpus_[current_]->onDomainSwitch(from, to);
}

void
BroadcastModel::onPageMapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // Mappings load lazily per CPU.
    cpus_[current_]->onPageMapped(vpn, pfn);
}

void
BroadcastModel::onPageUnmapped(vm::Vpn vpn, vm::Pfn pfn)
{
    // The classic TLB shootdown: every processor purges its entry and
    // flushes its cached lines.
    broadcast([&](os::ProtectionModel &m) { m.onPageUnmapped(vpn, pfn); });
}

void
BroadcastModel::onDomainDestroyed(os::DomainId domain)
{
    broadcast(
        [&](os::ProtectionModel &m) { m.onDomainDestroyed(domain); });
}

void
BroadcastModel::onSegmentDestroyed(const vm::Segment &seg)
{
    broadcast(
        [&](os::ProtectionModel &m) { m.onSegmentDestroyed(seg); });
}

bool
BroadcastModel::refreshAfterFault(os::DomainId domain, vm::Vpn vpn)
{
    // Fault repair is local to the faulting processor.
    return cpus_[current_]->refreshAfterFault(domain, vpn);
}

vm::Access
BroadcastModel::cachedRights(os::DomainId domain, vm::Vpn vpn) const
{
    return cpus_[current_]->cachedRights(domain, vpn);
}

SmpSystem::SmpSystem(const SystemConfig &config, unsigned cpus)
    : config_(config), statsRoot_("smp-system"), state_(config.frames)
{
    broadcast_ = std::make_unique<BroadcastModel>(config_, cpus, state_,
                                                  account_, &statsRoot_);
    kernel_ = std::make_unique<os::Kernel>(state_, *broadcast_,
                                           config_.costs, account_,
                                           &statsRoot_);
}

void
SmpSystem::runOn(unsigned cpu, os::DomainId domain)
{
    broadcast_->setCurrentCpu(cpu);
    kernel_->switchTo(domain);
}

bool
SmpSystem::access(vm::VAddr va, vm::AccessType type)
{
    const os::DomainId domain = kernel_->currentDomain();
    SASOS_ASSERT(domain != 0, "no current domain; create one first");
    for (int attempt = 0; attempt < 8; ++attempt) {
        const os::AccessResult result =
            broadcast_->access(domain, va, type);
        if (result.completed)
            return true;
        bool retry = false;
        switch (result.fault) {
          case os::FaultKind::Protection:
            retry = kernel_->handleProtectionFault(domain, va, type);
            break;
          case os::FaultKind::Translation:
            retry = kernel_->handleTranslationFault(domain, va, type);
            break;
          case os::FaultKind::None:
            SASOS_PANIC("incomplete access without a fault");
        }
        if (!retry)
            return false;
    }
    SASOS_PANIC("livelock resolving faults at address ", va.raw());
}

} // namespace sasos::core
