/**
 * @file
 * The cross-model differential oracle.
 *
 * The paper's central claim is that the PLB, page-group, conventional
 * and protection-key systems may differ in *cost* but never in
 * *outcome*: every reference is allowed or denied identically, because
 * all four derive their decisions from the same canonical protection
 * state (PAPER.md Sections 3-4). The oracle turns that claim, plus the
 * fault engine's contract (injection perturbs cached state only),
 * into an executable check:
 *
 *   1. synthesize a deterministic scenario -- domains, segments, a
 *      rights matrix, a reference trace with embedded domain switches
 *      and mid-stream rights churn -- from one seed;
 *   2. replay the identical trace against all four models, clean and
 *      with fault injection enabled;
 *   3. assert that per-reference allow/deny decision vectors and the
 *      final canonical rights state are bit-identical across all eight
 *      runs, and that no model's cached hardware rights exceed the
 *      canonical rights.
 *
 * Steps 2 and 3 are the shared differential path (runDifferential),
 * which the scenario oracle (scenario/oracle.hh) drives with a
 * scenario Script instead of a trace. Cycle costs legitimately differ
 * (that difference is the paper); the oracles report them as
 * recovery-overhead numbers instead of checking them.
 */

#ifndef SASOS_FAULT_ORACLE_HH
#define SASOS_FAULT_ORACLE_HH

#include <functional>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "fault/fault.hh"

namespace sasos::core
{
class System;
}

namespace sasos::fault
{

/** One differential campaign's shape. Everything is derived from
 * `scenarioSeed`, so a campaign is reproducible bit for bit. */
struct CampaignConfig
{
    u64 scenarioSeed = 1;
    /** Schedule for the injected runs (enabled is forced on there and
     * off in the clean runs). */
    FaultConfig faults;
    /** Reference records in the trace (switches are extra). */
    u64 references = 20'000;
    u32 domains = 3;
    u32 segments = 4;
    u64 pagesPerSegment = 32;
    double storeFraction = 0.3;
    double ifetchFraction = 0.1;
    /** Probability that a record is a domain switch. */
    double switchFraction = 0.02;
    /** Apply one random rights-churn operation every N references
     * (0 disables churn). */
    u64 rightsChurnEvery = 256;
};

/** What one (model, injected?) run of a differential oracle produced.
 * The stream driver fills `decisions`; the shared path fills the
 * rest. */
struct RunOutcome
{
    std::string model;
    bool injected = false;
    /** References allowed and denied (the 1s and 0s of decisions). */
    u64 completed = 0;
    u64 failed = 0;
    u64 simCycles = 0;
    u64 protectionFaults = 0;
    u64 translationFaults = 0;
    u64 staleFaults = 0;
    u64 faultRetries = 0;
    u64 domainSwitches = 0;
    u64 forks = 0;
    u64 cowFaults = 0;
    u64 cowCopies = 0;
    u64 cowReuses = 0;
    /** Injector totals (0 in clean runs). */
    u64 injectedEvents = 0;
    u64 transients = 0;
    /** Per-reference allow/deny decisions, in stream order. */
    std::vector<u8> decisions;
    /** Canonical rights of every live (domain, page) pair after the
     * run, one digit per pair. */
    std::string rightsSnapshot;
    /** The model's cachedRights never exceeded canonical rights in
     * the final-state probe. */
    bool hwWithinCanonical = true;
};

/** A differential oracle's verdict over its runs. */
template <typename Run>
struct Verdict
{
    bool passed = false;
    /** Human-readable invariant violations (empty when passed). */
    std::vector<std::string> violations;
    /** One run per core::allModels() entry x {clean, injected}, in
     * that order; the first is the baseline. */
    std::vector<Run> runs;
    /** References per run (identical for all runs). */
    u64 references = 0;

    /** The run of one model, clean or injected (null if absent). */
    const Run *
    find(const std::string &model, bool injected) const
    {
        for (const Run &run : runs) {
            if (run.model == model && run.injected == injected)
                return &run;
        }
        return nullptr;
    }
};

/** Verdict of one campaign. */
using CampaignResult = Verdict<RunOutcome>;

/** @name The shared differential path
 * Each oracle supplies only its stream driver; building the machines,
 * the final-state probe and the comparison are common. */
/// @{

/**
 * Build a `kind` machine under `faults` (enabled forced to
 * `injected`), replay the oracle's stream on it through `drive`, then
 * fill `run`'s counters and probe its final state.
 */
void runModel(core::ModelKind kind, bool injected,
              const FaultConfig &faults, RunOutcome &run,
              const std::function<void(core::System &)> &drive);

/**
 * The final-state probe: canonical rights of every live domain on
 * every page of every live segment into `run.rightsSnapshot`, and
 * `run.hwWithinCanonical` cleared if the model's cachedRights exceed
 * them anywhere. Peeks only, so the machine is left as it was.
 */
void probeFinalState(core::System &sys, RunOutcome &run);

/**
 * The differential checks of `run` against `baseline`: it replayed
 * `references` references, kept hardware within canonical rights, and
 * matches the baseline's decisions and final canonical rights. Each
 * failure appends one text to `violations`, starting with `prefix`;
 * a short run's text names the expected count after `expected`.
 * Cycles are deliberately not compared.
 */
void compareRun(const RunOutcome &baseline, const RunOutcome &run,
                u64 references, const std::string &prefix,
                const std::string &expected,
                std::vector<std::string> &violations);

/**
 * Run `drive(sys, run)` -- which replays the stream on `sys`, filling
 * `run.decisions` -- on every model, clean and injected, into
 * `verdict.runs`, then compare each run with the first (see
 * compareRun) and set `verdict.passed`. `verdict.references` must be
 * set beforehand.
 */
template <typename Run, typename Drive>
void
runDifferential(Verdict<Run> &verdict, const FaultConfig &faults,
                const std::string &prefix, const std::string &expected,
                const Drive &drive)
{
    for (core::ModelKind kind : core::allModels()) {
        for (bool injected : {false, true}) {
            Run &run = verdict.runs.emplace_back();
            runModel(kind, injected, faults, run,
                     [&](core::System &sys) { drive(sys, run); });
        }
    }
    for (const Run &run : verdict.runs) {
        compareRun(verdict.runs.front(), run, verdict.references, prefix,
                   expected, verdict.violations);
    }
    verdict.passed = verdict.violations.empty();
}
/// @}

/**
 * Run one differential campaign. The synthesized trace is written to
 * `trace_path` (overwritten if present) and replayed via
 * trace::replay against every run, so the stream each system sees is
 * exactly the on-disk artifact.
 */
CampaignResult runCampaign(const CampaignConfig &config,
                           const std::string &trace_path);

} // namespace sasos::fault

#endif // SASOS_FAULT_ORACLE_HH
