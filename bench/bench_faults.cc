/**
 * @file
 * The fault-injection differential oracle bench.
 *
 * Runs seeded fault campaigns (src/fault/oracle.hh) at several
 * injection rates. Each campaign replays one synthesized reference
 * trace against all four architectures, clean and under injection,
 * and checks that allow/deny decisions and final canonical rights are
 * bit-identical everywhere -- faults may only cost cycles, never
 * change an outcome. The bench refuses to write BENCH_faults.json
 * unless every campaign passes, so the JSON doubles as a proof
 * artifact.
 *
 * The table and JSON report what injection *is* allowed to change:
 * per-model recovery cost (extra cycles per injected event) and
 * total fault overhead.
 *
 * Keys: refs= (default 20000), seed=, rate= (run one rate instead of
 * the standard ladder), gap=, json=, oracle_trace= (the replayed
 * reference-trace file; trace= is the global event tracer).
 */

#include "bench_common.hh"

#include <fstream>

#include "fault/oracle.hh"
#include "obs/json.hh"

using namespace sasos;

namespace
{

struct CampaignRow
{
    double rate = 0.0;
    fault::CampaignResult result;
};

fault::CampaignConfig
makeConfig(const Options &options, double rate)
{
    fault::CampaignConfig config;
    config.scenarioSeed = options.getU64("seed", 1);
    config.references = options.getU64("refs", 20'000);
    config.faults.seed = options.getU64("fault_seed", 7);
    config.faults.rate = rate;
    config.faults.transientGap = options.getU64("gap", 64);
    return config;
}

/** Extra cycles each injected event cost, on average. */
double
recoveryCost(const fault::RunOutcome &clean,
             const fault::RunOutcome &injected)
{
    if (injected.injectedEvents == 0)
        return 0.0;
    const double extra = static_cast<double>(injected.simCycles) -
                         static_cast<double>(clean.simCycles);
    return extra / static_cast<double>(injected.injectedEvents);
}

void
writeFaultsJson(const std::string &path,
                const std::vector<CampaignRow> &rows)
{
    std::ofstream os(path);
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "faults");
    json.member("oraclePassed", true);
    json.key("campaigns");
    json.beginArray();
    for (const CampaignRow &row : rows) {
        json.beginObject();
        json.member("rate", row.rate);
        json.member("references", row.result.references);
        json.key("runs");
        json.beginArray();
        for (const fault::RunOutcome &run : row.result.runs) {
            const fault::RunOutcome *clean =
                row.result.find(run.model, false);
            json.beginObject();
            json.member("model", run.model);
            json.member("injected", run.injected);
            json.member("completed", run.completed);
            json.member("failed", run.failed);
            json.member("simCycles", run.simCycles);
            json.member("protectionFaults", run.protectionFaults);
            json.member("translationFaults", run.translationFaults);
            json.member("staleFaults", run.staleFaults);
            json.member("faultRetries", run.faultRetries);
            json.member("injectedEvents", run.injectedEvents);
            json.member("transients", run.transients);
            json.member("recoveryCyclesPerEvent",
                        run.injected && clean != nullptr
                            ? recoveryCost(*clean, run)
                            : 0.0);
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
runCampaigns(const Options &options)
{
    const std::string json_path =
        options.getString("json", "BENCH_faults.json");
    const std::string trace_path =
        options.getString("oracle_trace", "oracle_campaign.trace");

    std::vector<double> rates = {0.001, 0.01, 0.05, 0.2};
    if (options.has("rate"))
        rates = {options.getDouble("rate", 0.01)};

    bench::printHeader(
        "Fault-injection differential oracle",
        "Same trace, four architectures, clean vs injected. Faults "
        "(spurious evictions, flushes, delayed fills, transient "
        "protection faults) may change cycle costs only: every "
        "allow/deny decision and the final canonical rights must be "
        "bit-identical across all eight runs of a campaign.");

    std::vector<CampaignRow> rows;
    bool all_passed = true;
    TextTable table({"rate", "model", "events", "transients", "retries",
                     "clean cyc/ref", "faulty cyc/ref", "recovery cyc/evt",
                     "overhead", "oracle"});
    for (double rate : rates) {
        CampaignRow row;
        row.rate = rate;
        row.result = fault::runCampaign(makeConfig(options, rate),
                                        trace_path);
        all_passed = all_passed && row.result.passed;
        for (const fault::RunOutcome &run : row.result.runs) {
            if (!run.injected)
                continue;
            const fault::RunOutcome *clean =
                row.result.find(run.model, false);
            const double refs =
                static_cast<double>(row.result.references);
            table.addRow(
                {TextTable::num(rate, 3), run.model,
                 TextTable::num(run.injectedEvents),
                 TextTable::num(run.transients),
                 TextTable::num(run.faultRetries -
                                (clean != nullptr ? clean->faultRetries
                                                  : 0)),
                 TextTable::num(clean != nullptr
                                    ? static_cast<double>(
                                          clean->simCycles) /
                                          refs
                                    : 0.0,
                                2),
                 TextTable::num(
                     static_cast<double>(run.simCycles) / refs, 2),
                 TextTable::num(clean != nullptr
                                    ? recoveryCost(*clean, run)
                                    : 0.0,
                                1),
                 TextTable::ratio(
                     clean != nullptr && clean->simCycles > 0
                         ? static_cast<double>(run.simCycles) /
                               static_cast<double>(clean->simCycles)
                         : 1.0,
                     3),
                 row.result.passed ? "pass" : "FAIL"});
        }
        for (const std::string &violation : row.result.violations)
            std::cout << "ORACLE VIOLATION (rate=" << rate
                      << "): " << violation << "\n";
        rows.push_back(std::move(row));
    }
    table.print(std::cout);

    if (!all_passed) {
        std::cout << "\noracle FAILED; not writing " << json_path << "\n";
        return 1;
    }
    writeFaultsJson(json_path, rows);
    std::cout << "\noracle passed at every rate; wrote " << json_path
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, runCampaigns);
}
