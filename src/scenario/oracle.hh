/**
 * @file
 * Differential oracle over application scenarios.
 *
 * Same contract and the same shared differential path as the fault
 * campaign oracle (fault/oracle.hh), but the operation stream is a
 * scenario Script instead of a synthetic trace: the identical script
 * is replayed on all four protection models, clean and fault-injected,
 * and the oracle asserts that per-reference allow/deny decisions and
 * the final canonical rights state are bit-identical across all eight
 * runs, and that no model's cached hardware rights exceed the
 * canonical rights. Because scenarios fork copy-on-write, share frames
 * and churn domains, this locks the new kernel paths under the same
 * equivalence claim as plain references. Cycle costs legitimately
 * differ and are reported, not compared.
 */

#ifndef SASOS_SCENARIO_ORACLE_HH
#define SASOS_SCENARIO_ORACLE_HH

#include <string>
#include <vector>

#include "fault/oracle.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace sasos::scn
{

/** What one (model, injected?) scenario replay produced: the shared
 * run record plus the runner's tally. */
struct ScenarioRun : fault::RunOutcome
{
    RunStats stats;
};

/** Verdict for one scenario across all eight runs. */
struct ScenarioVerdict : fault::Verdict<ScenarioRun>
{
    std::string scenario;
};

/**
 * Replay `script` on all four models, clean and injected under
 * `faults` (enabled is forced on/off per run), and compare.
 */
ScenarioVerdict runScenarioOracle(const Script &script,
                                  const fault::FaultConfig &faults);

/** The standard three scenarios through the oracle. */
std::vector<ScenarioVerdict>
runStandardOracle(u64 seed, const fault::FaultConfig &faults);

} // namespace sasos::scn

#endif // SASOS_SCENARIO_ORACLE_HH
