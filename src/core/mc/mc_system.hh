/**
 * @file
 * The concurrent multi-core engine: N cores, each with its own
 * protection hardware and reference stream, over one shared kernel
 * and canonical VmState, interleaved by a deterministic schedule.
 *
 * The cores' models sit behind one PerCoreModels fan-out
 * (core/per_core_models.hh), the one SmpSystem uses too; only the
 * delivery differs. SmpSystem applies a maintenance hook to every CPU
 * at once. McSystem models the shootdown the way Section 4.1.3
 * describes it happening on a real multiprocessor: the issuing core
 * updates its own structures, sends an IPI per remote core, and
 * *stalls* on the completion barrier; each remote core keeps
 * executing its own stream for a bounded number of steps (the IPI
 * flight / interrupt-masking window) before it takes the interrupt,
 * purges the op's range (ProtectionModel::purgeForAck), applies the
 * hook, and acks. During that window a remote core can still complete
 * references from rights the kernel has already revoked --
 * exactly the stale-rights window the schedule explorer (explorer.hh)
 * checks invariants over.
 *
 * Everything is simulated on the calling host thread: the seeded
 * McSchedule alone decides which core steps next, so one
 * (workload seed, schedule seed, cores) triple is bit-identical on
 * any host; host threads (sim/parallel.hh) only ever execute
 * *different* pre-decided schedules concurrently (see explorer.hh).
 */

#ifndef SASOS_CORE_MC_MC_SYSTEM_HH
#define SASOS_CORE_MC_MC_SYSTEM_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/mc/mc_workload.hh"
#include "core/mc/schedule.hh"
#include "core/system_config.hh"
#include "os/kernel.hh"
#include "os/vm_state.hh"
#include "sim/cycle_account.hh"
#include "sim/stats.hh"

namespace sasos::core
{
class PerCoreModels;
} // namespace sasos::core

namespace sasos::core::mc
{

/** Multi-core engine configuration. */
struct McConfig
{
    /** Per-core machine (model preset, structures, costs). */
    SystemConfig system;
    unsigned cores = 4;
    /** Seed of the interleaving schedule (schedule_seed=). */
    u64 scheduleSeed = 1;
    /** Steps one scheduled core runs per turn (mc_quantum=). */
    u64 quantum = 8;
    /** Steps a remote core executes before taking a pending IPI --
     * the stale-rights window (mc_ipi_delay=; 0 acks immediately). */
    u64 ipiDelaySteps = 6;
    /**
     * IPI coalescing window in steps (mc_coalesce=; 0 disables).
     * When a core takes one due IPI, every further inbox entry due
     * within the next `coalesceWindow` steps is delivered in the same
     * interrupt: each op still purges/applies/acks individually (the
     * delivered-purge set is exactly the uncoalesced one), but the
     * piggy-backed ops skip the per-IPI dispatch trap charge. This is
     * what keeps 64-1024-core shootdown storms tractable.
     */
    u64 coalesceWindow = 0;
    McWorkloadConfig workload;
    /** Map every segment page up front so no demand maps occur and
     * frame assignment is schedule-independent. */
    bool premap = false;
    /** Check the stale-rights and hw-subset-of-canonical invariants
     * while running. */
    bool checkInvariants = true;
    /** Record each core's per-reference allow/deny vector (the
     * sequential-projection oracle input). */
    bool recordOutcomes = false;
    /** Logical obs tid of core 0 (cores use tidBase..tidBase+N-1). */
    u32 tidBase = 1;

    /** Build from cores=/schedule_seed=/mc_quantum=/mc_ipi_delay=/
     * mc_coalesce=/refs=/churn= plus the usual SystemConfig keys.
     * Bounds are validated fatally: cores in [1, 1024], mc_quantum in
     * [1, 2^20], mc_ipi_delay and mc_coalesce at most 2^20. */
    static McConfig fromOptions(const Options &options);
};

/** Tally of one McSystem::run(). */
struct McResult
{
    u64 slots = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 kernelOps = 0;
    u64 shootdowns = 0;
    u64 acks = 0;
    /** Acks delivered piggy-backed inside another IPI's dispatch. */
    u64 coalescedAcks = 0;
    /** References issued by a core with an unacked IPI pending. */
    u64 staleWindowRefs = 0;
    /** Stale-window references granted beyond canonical rights. */
    u64 staleGrants = 0;
    /** Grants beyond canonical *outside* any stale window (must be 0). */
    u64 invariantViolations = 0;
    /** Hardware state found beyond canonical at a quiescence check. */
    u64 hwViolations = 0;
    u64 quiescentChecks = 0;
    u64 cycles = 0;
    double shootdownLatencyMean = 0.0;
    u64 shootdownLatencyMax = 0;
    double staleRefsPerShootdownMean = 0.0;
    /** First violation, for test diagnostics ("" when none). */
    std::string firstViolation;
    std::vector<u64> coreCycles;
    std::vector<u64> coreCompleted;
    std::vector<u64> coreFailed;
    /** Allow/deny of references issued at quiescence (empty inbox),
     * in global issue order: model-independent by construction. */
    std::vector<u8> quiescentOutcomes;
    /** Per-core allow/deny vectors (when recordOutcomes). */
    std::vector<std::vector<u8>> coreOutcomes;
};

/** A deferred broadcast maintenance operation. */
struct RemoteOp
{
    u64 shootdownId = 0;
    /** Value-capturing closure applying the maintenance hook. */
    std::function<void(os::ProtectionModel &)> apply;
    /** Page range the op affects (the ack's stale-entry probe). */
    vm::Vpn first;
    u64 pages = 0;
    /** Probe filter: one domain, or all when nullopt. */
    std::optional<os::DomainId> domain;
};

/** The multi-core machine. */
class McSystem
{
  public:
    explicit McSystem(const McConfig &config);
    ~McSystem();

    McSystem(const McSystem &) = delete;
    McSystem &operator=(const McSystem &) = delete;

    /**
     * Run the machine: schedule turns until every core's script is
     * exhausted, or -- when `max_slots` is given -- until at least
     * that many further turns have executed *and* the machine reaches
     * a quiescent point (no shootdown in flight, every IPI acked).
     * Re-entrant: call again to continue; calling after completion is
     * an error. The returned tally is cumulative over all calls.
     */
    McResult run(u64 max_slots = ~u64{0});

    /** Every script exhausted and every shootdown acked. */
    bool done() const { return done_; }

    /** @name Snapshot hooks
     * Valid only at the quiescent points run() stops at; the image
     * carries the engine's own fingerprint (cores, seeds, workload)
     * ahead of the per-core machines. */
    /// @{
    void save(snap::SnapWriter &w) const;
    void load(snap::SnapReader &r);
    /// @}

    const McConfig &config() const { return config_; }
    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    os::Kernel &kernel() { return *kernel_; }
    os::VmState &state() { return state_; }
    CycleAccount &account() { return account_; }
    os::DomainId domainOf(unsigned core) const;
    const McLayout &layoutOf(unsigned core) const;
    /** One core's concrete protection model (stats, tests). */
    os::ProtectionModel &coreModel(unsigned core);
    vm::SegmentId sharedSegment() const { return sharedSeg_; }

    stats::Group &statsRoot() { return statsRoot_; }
    void dumpStats(std::ostream &os);
    void dumpStatsJson(std::ostream &os);

  private:
    /** One simulated core; its model and stats group live in model_. */
    struct Core
    {
        os::ProtectionModel *model = nullptr;
        os::DomainId domain = 0;
        McLayout layout;
        std::unique_ptr<CoreScript> script;
        /** IPIs sent to this core, FIFO; deliverAtStep gates each. */
        std::deque<std::pair<std::shared_ptr<const RemoteOp>, u64>> inbox;
        /** Completion barriers this core is blocked on (one per
         * shootdown it issued that has not fully acked). */
        u64 barriers = 0;
        u64 stepsExecuted = 0;
        u64 completed = 0;
        u64 failed = 0;
        u64 cycles = 0;
        std::vector<u8> outcomes;
        /** Exported per-core tallies, set once at the end of run(). */
        std::unique_ptr<stats::Scalar> completedStat;
        std::unique_ptr<stats::Scalar> failedStat;
        std::unique_ptr<stats::Scalar> cyclesStat;
    };

    /** One shootdown between IPI issue and the last ack. */
    struct Shootdown
    {
        u64 id = 0;
        unsigned issuer = 0;
        u64 pendingAcks = 0;
        u64 issueCycle = 0;
        u64 staleRefs = 0;
    };

    void setupWorkload();
    /** Assemble the cumulative McResult from the live counters. */
    McResult buildResult();
    /** Deliver a maintenance hook: the current core now, remotes at
     * their acks. */
    void broadcastOp(std::function<void(os::ProtectionModel &)> apply,
                     vm::Vpn first, u64 pages,
                     std::optional<os::DomainId> domain);
    void runTurn(unsigned ci);
    /** Ack every pending IPI whose delivery step has been reached,
     * plus -- under a nonzero coalesce window -- those due within the
     * window of a taken interrupt. */
    void deliverDue(Core &c);
    /** @param charge_dispatch false for a coalesced (piggy-backed)
     * delivery, which skips the per-IPI dispatch trap charge. */
    void processAck(Core &c, const RemoteOp &op, bool charge_dispatch);
    /** Re-derive core `ci`'s membership in the runnable set. Called
     * at every transition of the inputs (inbox, barriers, script), so
     * run() never rescans all cores: bookkeeping is O(active). */
    void refreshRunnable(unsigned ci);
    bool issueRef(Core &c, vm::VAddr va, vm::AccessType type);
    /** hw ⊆ canonical over every (core, its domain, page) triple;
     * valid only at global quiescence (no shootdown in flight). */
    void checkHwSubset();
    void noteViolation(const std::string &what);

    McConfig config_;
    stats::Group statsRoot_;

  public:
    /** @name Statistics */
    /// @{
    stats::Scalar references;
    stats::Scalar failedReferences;
    stats::Group mcGroup;
    stats::Scalar slots;
    stats::Scalar kernelOps;
    stats::Scalar shootdowns;
    stats::Scalar ipisSent;
    stats::Scalar acks;
    stats::Scalar coalescedAcks;
    stats::Scalar staleWindowRefs;
    stats::Scalar staleGrants;
    stats::Scalar quiescentRefs;
    stats::Scalar staleEntriesPurged;
    stats::Scalar invariantViolations;
    stats::Scalar hwSubsetViolations;
    stats::Scalar quiescentChecks;
    stats::Histogram shootdownLatency;
    stats::Histogram shootdownStaleRefs;
    stats::Histogram ackStaleEntries;
    /// @}

  private:
    CycleAccount account_;
    os::VmState state_;
    std::unique_ptr<PerCoreModels> model_;
    std::unique_ptr<os::Kernel> kernel_;
    std::vector<Core> cores_;
    /** Page ranges of every created segment (quiescence checks). */
    std::vector<std::pair<vm::Vpn, u64>> segments_;
    vm::SegmentId sharedSeg_ = vm::kInvalidSegment;
    std::vector<Shootdown> inflight_;
    McSchedule schedule_;
    u64 shootdownIds_ = 0;
    /** Setup mode: broadcasts apply to every core immediately. */
    bool synchronous_ = true;
    bool done_ = false;
    /** Cores eligible for the next turn, maintained incrementally by
     * refreshRunnable(). Ordered so the schedule draws over the same
     * ascending core list the per-slot rescan used to build. */
    std::set<unsigned> runnable_;
    /** Per-slot scratch image of runnable_ handed to the schedule. */
    std::vector<unsigned> runnableScratch_;
    std::vector<u8> quiescentOutcomes_;
    std::string firstViolation_;
};

} // namespace sasos::core::mc

#endif // SASOS_CORE_MC_MC_SYSTEM_HH
