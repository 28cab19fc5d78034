/**
 * @file
 * The model factory and the multiprocessor fan-out: one protection
 * model per processor behind the single ProtectionModel the shared
 * kernel drives.
 *
 * Section 4.1.3 notes that unmapping "is done with a small number of
 * instructions on each processor": every CPU has its own PLB / TLB /
 * page-group cache / caches, and any protection or translation change
 * must reach all of them. PerCoreModels sends the reference path and
 * the per-processor operations (domain switch, lazy mapping, fault
 * repair, the hardware peek) to the current core only, and hands every
 * maintenance hook to its owner's delivery call as a value-capturing
 * closure plus the page range the hook affects. SmpSystem (smp.hh)
 * delivers to every core at once; McSystem (mc/mc_system.hh) applies
 * the hook on the issuing core and queues it as an IPI for the rest.
 */

#ifndef SASOS_CORE_PER_CORE_MODELS_HH
#define SASOS_CORE_PER_CORE_MODELS_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "os/protection_model.hh"
#include "os/vm_state.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{

/** Build the protection model `config.model` names, its stats
 * registered under `parent`. */
std::unique_ptr<os::ProtectionModel> makeModel(const SystemConfig &config,
                                               os::VmState &state,
                                               CycleAccount &account,
                                               stats::Group *parent);

/** A maintenance hook bound to its arguments, applied to one core. */
using MaintenanceOp = std::function<void(os::ProtectionModel &)>;

/**
 * Routes one maintenance op to the cores. [first, first + pages) is
 * the page range the op affects and `domain` the one domain it
 * concerns (nullopt: every domain) -- what a remote core purges when
 * it takes the op (ProtectionModel::purgeForAck).
 */
using Delivery =
    std::function<void(MaintenanceOp apply, vm::Vpn first, u64 pages,
                       std::optional<os::DomainId> domain)>;

/** One protection model per core, fanned out through a delivery. */
class PerCoreModels : public os::ProtectionModel
{
  public:
    PerCoreModels(const SystemConfig &config, os::VmState &state,
                  CycleAccount &account, Delivery deliver);
    ~PerCoreModels() override;

    const char *name() const override { return "per-core"; }

    /** Add one core's model, its stats under a new group `name` of
     * `parent`. @return that group. */
    stats::Group &addCore(stats::Group *parent, const std::string &name);

    /** Select the core that issues references and local operations. */
    void setCurrent(unsigned core);
    unsigned current() const { return current_; }
    unsigned count() const { return static_cast<unsigned>(cores_.size()); }

    /** The concrete model of one core. */
    os::ProtectionModel &core(unsigned index);

    os::AccessResult access(os::DomainId domain, vm::VAddr va,
                            vm::AccessType type) override;

    vm::Access cachedRights(os::DomainId domain, vm::Vpn vpn) const override;

    /** The fan-out keeps no memo of its own: drop every core's. */
    void dropMemo() override;

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

  private:
    const SystemConfig &config_;
    os::VmState &state_;
    CycleAccount &account_;
    Delivery deliver_;
    /** Groups outlive the models that register stats into them. */
    std::vector<std::unique_ptr<stats::Group>> groups_;
    std::vector<std::unique_ptr<os::ProtectionModel>> cores_;
    unsigned current_ = 0;
};

} // namespace sasos::core

#endif // SASOS_CORE_PER_CORE_MODELS_HH
