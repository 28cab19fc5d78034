/**
 * @file
 * The sweep farm coordinator: shards a campaign across forked worker
 * processes, distributes cells through a work queue, and uses the
 * snapshot subsystem for elastic, crash-tolerant scheduling.
 *
 * Workers talk over pipes in envelope-checked frames (wire.hh). The
 * coordinator's event loop assigns cells to idle workers, drains
 * checkpoint images (each preflighted before it is accepted as a
 * resume point, and again before hand-off), and merges finished
 * CellResults *by cell id*, so the merged output is independent of
 * which worker ran what, in which order, and how many times a cell
 * was restarted.
 *
 * Failure handling: a worker that dies (crash, chaos SIGKILL, or
 * watchdog timeout), poisons its frame stream, or ships a corrupt
 * image is reaped and its cell is requeued -- resumed from the last
 * good checkpoint image when one exists, restarted from the cell
 * start otherwise -- at the *back* of the queue (the retry backoff),
 * with a per-cell attempt cap as the giving-up point. The pool is
 * elastic: every death is replaced by a fresh fork while work
 * remains, so the farm finishes at full width even under a hostile
 * kill schedule.
 *
 * Chaos: killRate is a seeded per-cell probability of one SIGKILL
 * during that cell's service -- immediately after assignment or after
 * a seeded number of checkpoints, so both restart-from-scratch and
 * resume-from-image recovery paths are exercised. Each cell is doomed
 * at most once, so chaos never livelocks a campaign. migrateRate
 * instead preempts the cell at its first checkpoint and resumes it on
 * a different worker: the graceful elasticity path. That preemption
 * rides in the order itself (Message::preemptFirst), the farm's one
 * way to stop a running cell; every other stop is a SIGKILL.
 *
 * Every recovery path lands on the same guarantee, enforced by
 * bench_farm and tests/farm_test.cc: the farmed results are
 * bit-identical -- stats dump, cycle account, BENCH JSON -- to a
 * serial SweepRunner run of the same campaign.
 */

#ifndef SASOS_FARM_COORDINATOR_HH
#define SASOS_FARM_COORDINATOR_HH

#include <string>
#include <vector>

#include "farm/campaign.hh"

namespace sasos::farm
{

/** Farm shape and failure-injection knobs. */
struct FarmOptions
{
    /** Worker processes (farm_workers=). */
    unsigned workers = 4;
    /** References between worker checkpoints; 0 disables mid-cell
     * checkpointing (farm_checkpoint_every=). */
    u64 checkpointEvery = 0;
    /** Seeded probability of one chaos SIGKILL per cell
     * (farm_kill_rate=). */
    double killRate = 0.0;
    /** Seeded probability of one preempt-and-migrate per cell
     * (farm_migrate_rate=). */
    double migrateRate = 0.0;
    /** Chaos schedule seed (farm_kill_seed=). */
    u64 killSeed = 1;
    /** Kill a busy worker silent for this long (watchdog). */
    double timeoutSec = 120.0;
    /** Give up on a cell after this many attempts. */
    unsigned maxAttempts = 8;

    /** Read the farm_* keys. Fatal: farm_workers above 1024 (the
     * threads=/cores= bound), a rate outside [0, 1], farm_timeout
     * not above 0, farm_max_attempts of 0 or beyond unsigned. */
    static FarmOptions fromOptions(const Options &options);
};

/** What the farm did to finish the campaign. The last three count
 * faults a healthy farm never sees; the farm tests assert they stay
 * 0 under chaos kills and migrations. */
struct FarmStats
{
    /** Worker processes forked: the initial `workers`, plus one
     * replacement per death while cells remain. */
    u64 forks = 0;
    /** Workers reaped before shutdown: chaos kills, timeouts,
     * crashes, and workers killed for a poisoned frame or a rejected
     * image. Nonzero only when a worker was lost. */
    u64 deaths = 0;
    /** Seeded chaos SIGKILLs, at most one per cell; nonzero only
     * with killRate > 0. */
    u64 chaosKills = 0;
    /** Busy workers silent for timeoutSec, killed by the watchdog;
     * nonzero only when a worker hangs or a slice outlasts
     * timeoutSec. */
    u64 timeouts = 0;
    /** Cells requeued because their worker died mid-cell, to resume
     * from the last accepted image or restart; at most `deaths`. */
    u64 retries = 0;
    /** Image frames received for a running cell, stopped ones
     * included; nonzero only with checkpointEvery > 0. */
    u64 checkpointImages = 0;
    /** Orders sent with preemptFirst, at most one per cell; nonzero
     * only with migrateRate > 0 and checkpointEvery > 0. */
    u64 preempts = 0;
    /** Stopped images accepted and requeued for another worker; at
     * most `preempts` (a cell that ends within its first slice sends
     * Done instead). */
    u64 migrations = 0;
    /** Resume orders sent: a cell continued from an accepted image
     * after a death or a migration. */
    u64 resumes = 0;
    /** Images whose envelope failed preflightEnvelope, on receipt
     * (the sender is killed) or at hand-off (the cell restarts).
     * Nonzero only when a worker or pipe corrupted an image. */
    u64 rejectedImages = 0;
    /** Frames that broke the protocol -- a bad header, a failed
     * decode, a kind workers never send, or a cell id the worker
     * does not hold; the worker is killed. Nonzero only for a faulty
     * worker. */
    u64 poisonedFrames = 0;
    /** Done frames for a cell already done. A cell is requeued only
     * after its worker was reaped or stopped it, so no cell runs
     * twice at once and this stays 0; a nonzero count is a
     * coordinator bug (diverging duplicates also fail the farm). */
    u64 duplicateResults = 0;
};

/** The farmed campaign's outcome: results in cell order. */
struct FarmResult
{
    bool ok = false;
    std::string error;
    std::vector<CellResult> results;
    FarmStats stats;
    double wallSeconds = 0.0;
};

/** Run the whole campaign across a forked worker pool. */
FarmResult runFarm(const Campaign &campaign, const FarmOptions &options);

} // namespace sasos::farm

#endif // SASOS_FARM_COORDINATOR_HH
