/**
 * @file
 * The application-scenario bench + differential oracle gate.
 *
 * Builds the three seeded scenarios (CoW fork tree, portal RPC
 * chains, web-server-shaped mix), replays each on all four
 * protection architectures clean and fault-injected, and prints a
 * Table-1-style comparison: simulated cycles per reference, domain
 * switches, protection/translation faults and the CoW fork counters,
 * normalized against the PLB system. Every scenario runs under the
 * scenario differential oracle; the bench refuses to write
 * BENCH_scenarios.json and exits nonzero if any of the six runs of
 * any scenario diverges in allow/deny decisions or final canonical
 * rights, so the JSON doubles as a proof artifact.
 *
 * Keys: seed= (default 1), fault_rate= (default 0.02), fault_seed=,
 * gap=, json=, plus the usual machine overrides.
 */

#include "bench_common.hh"

#include <fstream>

#include "obs/json.hh"
#include "scenario/oracle.hh"

using namespace sasos;

namespace
{

void
writeScenariosJson(const std::string &path,
                   const std::vector<scn::ScenarioVerdict> &verdicts)
{
    std::ofstream os(path);
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "scenarios");
    json.member("oraclePassed", true);
    json.key("scenarios");
    json.beginArray();
    for (const scn::ScenarioVerdict &verdict : verdicts) {
        json.beginObject();
        json.member("scenario", verdict.scenario);
        json.member("references", verdict.references);
        json.key("runs");
        json.beginArray();
        for (const scn::ScenarioRun &run : verdict.runs) {
            const scn::ScenarioRun *clean =
                verdict.find(run.model, false);
            json.beginObject();
            json.member("model", run.model);
            json.member("injected", run.injected);
            json.member("allowed", run.stats.allowed);
            json.member("denied", run.stats.denied);
            json.member("simCycles", run.simCycles);
            json.member("domainSwitches", run.domainSwitches);
            json.member("protectionFaults", run.protectionFaults);
            json.member("translationFaults", run.translationFaults);
            json.member("staleFaults", run.staleFaults);
            json.member("faultRetries", run.faultRetries);
            json.member("forks", run.forks);
            json.member("cowFaults", run.cowFaults);
            json.member("cowCopies", run.cowCopies);
            json.member("cowReuses", run.cowReuses);
            json.member("injectedEvents", run.injectedEvents);
            json.member("transients", run.transients);
            json.member(
                "overhead",
                run.injected && clean != nullptr && clean->simCycles > 0
                    ? static_cast<double>(run.simCycles) /
                              static_cast<double>(clean->simCycles) -
                          1.0
                    : 0.0);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

int
runScenarios(const Options &options)
{
    const std::string json_path =
        options.getString("json", "BENCH_scenarios.json");
    const u64 seed = options.getU64("seed", 1);

    fault::FaultConfig faults;
    faults.seed = options.getU64("fault_seed", 7);
    faults.rate = options.getDouble("fault_rate", 0.02);
    faults.transientGap = options.getU64("gap", 64);

    bench::printHeader(
        "Application scenarios under the differential oracle",
        "CoW fork tree, portal RPC chains and a web-server mix, each "
        "replayed on all four architectures clean and fault-injected. "
        "Architectures may differ in cycles only: allow/deny decisions "
        "and final canonical rights must be bit-identical across all "
        "eight runs of a scenario.");

    std::vector<scn::ScenarioVerdict> verdicts =
        scn::runStandardOracle(seed, faults);

    bool all_passed = true;
    TextTable table({"scenario", "model", "refs", "denied", "cyc/ref",
                     "vs plb", "switches", "forks", "cowFaults",
                     "cowCopies", "faulty overhead", "oracle"});
    for (const scn::ScenarioVerdict &verdict : verdicts) {
        all_passed = all_passed && verdict.passed;
        const scn::ScenarioRun *plb = verdict.find("plb", false);
        for (const scn::ScenarioRun &run : verdict.runs) {
            if (run.injected)
                continue;
            const scn::ScenarioRun *injected =
                verdict.find(run.model, true);
            const double refs = static_cast<double>(verdict.references);
            const double cpr =
                refs > 0 ? static_cast<double>(run.simCycles) / refs : 0;
            table.addRow(
                {verdict.scenario, run.model,
                 TextTable::num(run.stats.refs),
                 TextTable::num(run.stats.denied), TextTable::num(cpr, 2),
                 bench::normalized(
                     static_cast<double>(run.simCycles),
                     plb != nullptr
                         ? static_cast<double>(plb->simCycles)
                         : 0.0),
                 TextTable::num(run.domainSwitches),
                 TextTable::num(run.forks), TextTable::num(run.cowFaults),
                 TextTable::num(run.cowCopies),
                 TextTable::ratio(
                     injected != nullptr && run.simCycles > 0
                         ? static_cast<double>(injected->simCycles) /
                               static_cast<double>(run.simCycles)
                         : 1.0,
                     3),
                 verdict.passed ? "pass" : "FAIL"});
        }
        for (const std::string &violation : verdict.violations)
            std::cout << "ORACLE VIOLATION: " << violation << "\n";
    }
    table.print(std::cout);

    if (!all_passed) {
        std::cout << "\nscenario oracle FAILED; not writing " << json_path
                  << "\n";
        return 1;
    }
    writeScenariosJson(json_path, verdicts);
    std::cout << "\nscenario oracle passed; wrote " << json_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, runScenarios);
}
