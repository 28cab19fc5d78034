#include "scenario/oracle.hh"

#include "core/system.hh"

namespace sasos::scn
{

ScenarioVerdict
runScenarioOracle(const Script &script, const fault::FaultConfig &faults)
{
    ScenarioVerdict verdict;
    verdict.scenario = script.name;
    verdict.references = script.refs;
    fault::runDifferential(verdict, faults, script.name + "/", "script has",
                           [&](core::System &sys, ScenarioRun &run) {
                               run.decisions.reserve(script.refs);
                               run.stats = runScript(sys, script, 0,
                                                     script.ops.size(),
                                                     &run.decisions);
                           });
    return verdict;
}

std::vector<ScenarioVerdict>
runStandardOracle(u64 seed, const fault::FaultConfig &faults)
{
    std::vector<ScenarioVerdict> verdicts;
    for (const Script &script : standardScripts(seed))
        verdicts.push_back(runScenarioOracle(script, faults));
    return verdicts;
}

} // namespace sasos::scn
