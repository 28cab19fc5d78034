/**
 * @file
 * The shootdown schedule explorer: replay one multi-core workload
 * under K different deterministic interleavings and check the safety
 * invariants on every one.
 *
 * Each schedule seed is one self-contained McSystem (own hardware,
 * kernel, canonical state), so seeds parallelize through parallelFor
 * exactly like sweep cells: results land in slot `i`, tids are
 * partitioned per cell, and the output is bit-identical at any host
 * thread count. The invariants each run is checked against:
 *
 *  - no reference is granted beyond canonical rights unless the core
 *    had an unacked shootdown pending (stale-rights invariant);
 *  - at every shootdown quiescence point and at the end of the run,
 *    each core's hardware grants a subset of canonical rights,
 *    probed from the real structures (PLB / TLB / group manager);
 *  - across protection models, references issued at local quiescence
 *    agree on allow/deny (the schedule is model-independent, so the
 *    quiescent outcome vectors are directly comparable).
 */

#ifndef SASOS_CORE_MC_EXPLORER_HH
#define SASOS_CORE_MC_EXPLORER_HH

#include <string>
#include <vector>

#include "core/mc/mc_system.hh"

namespace sasos::core::mc
{

/** Explorer configuration. */
struct ExplorerConfig
{
    /** The run every seed replays (scheduleSeed is overridden). */
    McConfig base;
    /** Number of schedule seeds to explore. */
    u64 seeds = 64;
    u64 firstSeed = 1;
    /** Host worker threads (1 = inline; results are identical). */
    unsigned threads = 1;
};

/** Per-seed summary, slot-indexed by (scheduleSeed - firstSeed). */
struct RunSummary
{
    u64 scheduleSeed = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 shootdowns = 0;
    u64 staleWindowRefs = 0;
    u64 staleGrants = 0;
    u64 invariantViolations = 0;
    u64 hwViolations = 0;
    u64 cycles = 0;
    std::string firstViolation;
    std::vector<u8> quiescentOutcomes;
    std::vector<std::vector<u8>> coreOutcomes;
};

/** Aggregate verdict over all explored schedules. */
struct ExplorerResult
{
    std::vector<RunSummary> runs;
    u64 totalShootdowns = 0;
    u64 totalStaleGrants = 0;
    u64 totalViolations = 0; // invariant + hw-subset, summed
    /** First violation across runs ("" when every schedule passed). */
    std::string firstViolation;

    bool passed() const { return totalViolations == 0; }
};

/** Explore K interleavings of `config.base` for one model. */
ExplorerResult explore(const ExplorerConfig &config);

/** One schedule seed compared across the four protection models:
 * quiescent outcome vectors must be identical. */
struct CrossModelRun
{
    u64 scheduleSeed = 0;
    /** One run per model of core::allModels() (plb, page-group,
     * conventional, pkey), in that order. */
    std::vector<RunSummary> byModel;
    bool outcomesAgree = false;
};

struct CrossModelResult
{
    std::vector<CrossModelRun> runs;
    u64 disagreements = 0;
    u64 totalViolations = 0;
    std::string firstViolation;

    bool passed() const
    {
        return disagreements == 0 && totalViolations == 0;
    }
};

/**
 * Explore K interleavings, running each against every protection
 * model in core::allModels() (base.system's structure sizes are
 * replaced by each model's preset) and comparing their quiescent
 * allow/deny vectors.
 */
CrossModelResult exploreCrossModel(const ExplorerConfig &config);

} // namespace sasos::core::mc

#endif // SASOS_CORE_MC_EXPLORER_HH
