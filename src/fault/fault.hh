/**
 * @file
 * Deterministic fault injection for the hardware structures.
 *
 * A FaultInjector perturbs a running system mid-stream: spurious
 * PLB/TLB/page-group-cache evictions, flash purges modeling capacity
 * pressure, delayed fills, and transient protection faults that the
 * kernel must resolve through its ordinary retry path. The schedule
 * is drawn from a seeded Rng advanced exactly once per reference, so
 * a campaign is bit-for-bit reproducible for a given (seed, rate) and
 * independent of host threading -- each simulated System owns its own
 * injector.
 *
 * The injector never touches canonical protection state. Every
 * perturbation removes or delays *cached* hardware state, which the
 * models re-derive from the kernel's tables; a transient protection
 * fault is indistinguishable from a stale-entry deny and is repaired
 * by ProtectionModel::refreshAfterFault. The differential oracle
 * (oracle.hh) turns this into a checked invariant: injection may
 * change cycle costs, never allow/deny outcomes.
 */

#ifndef SASOS_FAULT_FAULT_HH
#define SASOS_FAULT_FAULT_HH

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sasos::snap
{
class SnapWriter;
class SnapReader;
} // namespace sasos::snap

namespace sasos::fault
{

/** Injection schedule knobs (wired through SystemConfig/Options). */
struct FaultConfig
{
    /** Master switch (`faults=`); a disabled engine costs nothing. */
    bool enabled = false;
    /** Schedule seed (`fault_seed=`); same seed, same campaign. */
    u64 seed = 1;
    /** Per-reference injection probability (`fault_rate=`). */
    double rate = 0.01;
    /**
     * Minimum references between two transient protection faults.
     * A transient fault consumes one of a reference's bounded retry
     * attempts; spacing them out guarantees a single reference can
     * never see two and livelock the retry loop.
     */
    u64 transientGap = 64;
};

/** What the schedule asks the model to do before one reference. */
struct Perturbation
{
    /** Evict one random protection entry (PLB / page-group cache /
     * rights-carrying TLB entry). */
    bool evictProtection = false;
    /** Evict one random translation entry. */
    bool evictTranslation = false;
    /** Evict one random data-cache line (writeback if dirty). */
    bool evictData = false;
    /** Capacity pressure: flash-purge the protection structure. */
    bool flushProtection = false;
    /** Stall the reference as if its fill were delayed. */
    bool delayFill = false;
    /** Raise a transient protection fault; the kernel must retry the
     * reference to its clean-run outcome. */
    bool transientFault = false;

    bool
    any() const
    {
        return evictProtection || evictTranslation || evictData ||
               flushProtection || delayFill || transientFault;
    }
};

/** Seeded, reproducible perturbation schedule plus its statistics. */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &config, stats::Group *parent);

    const FaultConfig &config() const { return config_; }

    /**
     * Advance the schedule by one reference and return what (if
     * anything) to inject before it. Called once per model access,
     * including kernel-driven retries, so the schedule is identical
     * whether System::run or per-call access() issues the references.
     */
    Perturbation tick();

    /** The schedule's Rng, shared with structure-eviction choices so
     * one seed governs the whole campaign. */
    Rng &rng() { return rng_; }

    /** @name Snapshot hooks (schedule position: rng + tick counters) */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    /** @name Statistics */
    /// @{
    stats::Group statsGroup;
    stats::Scalar ticks;
    stats::Scalar injected;
    stats::Scalar evictions;
    stats::Scalar flushes;
    stats::Scalar delays;
    stats::Scalar transients;
    /// @}

  private:
    FaultConfig config_;
    Rng rng_;
    u64 tick_ = 0;
    /** First tick at which the next transient fault may fire. */
    u64 nextTransientOk_ = 0;
};

} // namespace sasos::fault

#endif // SASOS_FAULT_FAULT_HH
