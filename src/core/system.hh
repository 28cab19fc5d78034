/**
 * @file
 * The top-level simulated system: machine + kernel + accounting.
 *
 * A System bundles one protection architecture (chosen by the
 * SystemConfig), the canonical VM state, the kernel and the cycle
 * account, and provides the reference-issue loop that resolves faults
 * through the kernel -- the simulation's outermost "CPU".
 */

#ifndef SASOS_CORE_SYSTEM_HH
#define SASOS_CORE_SYSTEM_HH

#include <memory>
#include <ostream>

#include "core/conventional_system.hh"
#include "core/pagegroup_system.hh"
#include "core/pkey_system.hh"
#include "core/plb_system.hh"
#include "core/system_config.hh"
#include "fault/fault.hh"
#include "os/kernel.hh"
#include "os/pager.hh"
#include "sim/random.hh"

namespace sasos::wl
{
class AddressStream;
}

namespace sasos::core
{

/** Tally of one System::run() call. */
struct RunResult
{
    /** References that completed (possibly after resolved faults). */
    u64 completed = 0;
    /** References that ended in an exception. */
    u64 failed = 0;
};

/** @name Snapshot config signature
 * Every configuration field that decides structure geometry, policy
 * seeds, costs or schedule is serialized as (name, value) pairs; the
 * checker fails with a clean fatal naming the first field whose value
 * differs, so images can never be overlaid on a mismatched machine.
 */
/// @{
void saveConfigSignature(snap::SnapWriter &w, const SystemConfig &config);
void checkConfigSignature(snap::SnapReader &r, const SystemConfig &config);
/// @}

/** One simulated machine running the SASOS kernel. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return config_; }

    /** @name Issuing references from the current domain
     * Faults are resolved through the kernel and the access retried;
     * @return false if the fault became an exception (the reference
     * never completed).
     */
    /// @{
    bool access(vm::VAddr va, vm::AccessType type);
    bool load(vm::VAddr va) { return access(va, vm::AccessType::Load); }
    bool store(vm::VAddr va) { return access(va, vm::AccessType::Store); }
    bool ifetch(vm::VAddr va) { return access(va, vm::AccessType::IFetch); }

    /** Touch every page of a range once (load). */
    void touchRange(vm::VAddr base, u64 bytes);

    /**
     * Issue `n` references drawn from `stream`: exactly
     * access(stream.next(rng), type), n times, tallied.
     */
    RunResult run(wl::AddressStream &stream, u64 n, Rng &rng,
                  vm::AccessType type = vm::AccessType::Load);
    /// @}

    /** Create a pager (registers itself with the kernel). */
    os::Pager &makePager(const os::PagerConfig &pager_config);

    os::Kernel &kernel() { return *kernel_; }
    os::VmState &state() { return state_; }
    os::ProtectionModel &model() { return *model_; }
    CycleAccount &account() { return account_; }
    const CostModel &costs() const { return config_.costs; }

    /** Concrete model access (null when another model is active). */
    PlbSystem *plbSystem() { return plb_; }
    PageGroupSystem *pageGroupSystem() { return pageGroup_; }
    ConventionalSystem *conventionalSystem() { return conventional_; }
    PkeySystem *pkeySystem() { return pkey_; }

    /** The fault injector, or null when `faults=` is off. */
    fault::FaultInjector *injector() { return injector_.get(); }

    /** Total simulated cycles so far. */
    Cycles cycles() const { return account_.total(); }

    stats::Group &statsRoot() { return statsRoot_; }

    /** @name Snapshot hooks
     * save() serializes the complete simulator state behind the
     * config signature; load() restores it into a System constructed
     * with the *same* configuration (any mismatch is a clean fatal
     * naming the offending field). A pager recorded in the image is
     * created on demand before the state is overlaid.
     */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** Dump all statistics and the cycle breakdown. */
    void dumpStats(std::ostream &os);

    /** @name Machine-readable stats export (obs exporter) */
    /// @{
    void dumpStatsJson(std::ostream &os);
    void dumpStatsCsv(std::ostream &os);
    /// @}

  private:
    SystemConfig config_;
    stats::Group statsRoot_;

  public:
    /** @name Statistics */
    /// @{
    stats::Scalar references;
    stats::Scalar failedReferences;
    /// @}

  private:
    CycleAccount account_;
    os::VmState state_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<os::ProtectionModel> model_;
    PlbSystem *plb_ = nullptr;
    PageGroupSystem *pageGroup_ = nullptr;
    ConventionalSystem *conventional_ = nullptr;
    PkeySystem *pkey_ = nullptr;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<os::Pager> pager_;
};

} // namespace sasos::core

#endif // SASOS_CORE_SYSTEM_HH
