/**
 * @file
 * Experiment C12: concurrent shootdowns under contention (Section
 * 4.1.3's claim that remote maintenance is "a small number of
 * instructions on each processor", measured while every core keeps
 * issuing its own reference stream).
 *
 * Where bench_smp_shootdown measures one kernel operation against
 * idle remote CPUs, this bench runs the full multi-core engine: N
 * cores with private protection hardware interleave deterministically
 * over one shared kernel while attach/revoke churn fires shootdowns
 * asynchronously. Reported per model and core count: shootdown
 * latency (IPI issue to last ack), the stale-rights window (remote
 * references issued before the ack), and the stale grants the window
 * permitted. A short schedule-explorer run rechecks the safety
 * invariants across interleavings before the numbers are written.
 */

#include "bench_common.hh"

#include <fstream>

#include "core/mc/explorer.hh"
#include "core/mc/mc_system.hh"
#include "obs/json.hh"

using namespace sasos;

namespace
{

struct McRow
{
    std::string label;
    unsigned cores = 1;
    u64 refs = 0;
    core::mc::McResult result;
};

core::mc::McConfig
rowConfig(const Options &options, const core::SystemConfig &model,
          unsigned cores)
{
    core::mc::McConfig config = core::mc::McConfig::fromOptions(options);
    config.system = model;
    config.workload.seed = config.system.seed;
    config.cores = cores;
    return config;
}

McRow
runRow(const Options &options, const bench::ModelUnderTest &model,
       unsigned cores)
{
    McRow row;
    row.label = model.label;
    row.cores = cores;
    core::mc::McSystem system(
        rowConfig(options, model.config, cores));
    row.result = system.run();
    row.refs = row.result.completed + row.result.failed;
    return row;
}

void
printCoresTable(const Options &options, std::vector<McRow> &rows)
{
    bench::printHeader(
        "C12: shootdown latency and stale window vs core count",
        "Every core issues its own reference stream; 5% of steps are "
        "kernel protection ops, each an asynchronous shootdown. "
        "Latency runs from IPI issue to the last remote ack; the "
        "stale window counts remote references issued before acking.");

    TextTable table({"model", "cores", "shootdowns", "latency mean",
                     "latency max", "stale refs/shootdown",
                     "stale grants", "cycles/ref"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        for (const auto &model : bench::standardModels(options)) {
            rows.push_back(runRow(options, model, cores));
            const McRow &row = rows.back();
            table.addRow(
                {row.label, TextTable::num(u64{cores}),
                 TextTable::num(row.result.shootdowns),
                 TextTable::num(row.result.shootdownLatencyMean, 1),
                 TextTable::num(row.result.shootdownLatencyMax),
                 TextTable::num(row.result.staleRefsPerShootdownMean, 2),
                 TextTable::num(row.result.staleGrants),
                 TextTable::num(row.refs ? static_cast<double>(
                                               row.result.cycles) /
                                               static_cast<double>(
                                                   row.refs)
                                         : 0.0,
                                1)});
        }
    }
    table.print(std::cout);
    std::cout << "shape check: latency grows with core count (more acks "
                 "to collect, each delayed by the remote's step clock); "
                 "the per-ack maintenance keeps the single-processor "
                 "model ordering; one core has no shootdowns at all.\n";
}

void
printWindowTable(const Options &options, std::vector<McRow> &rows)
{
    bench::printHeader(
        "C12b: stale-rights window vs IPI delay (4 cores)",
        "The window during which a remote core may still use revoked "
        "rights is set by how long it defers the IPI. Stale grants "
        "are the revoked-rights accesses the window let through; "
        "outside the window there must be none.");

    TextTable table({"model", "ipi delay (steps)", "stale window refs",
                     "stale refs/shootdown", "stale grants",
                     "latency mean"});
    for (u64 delay : {u64{0}, u64{2}, u64{6}, u64{12}}) {
        for (const auto &model : bench::standardModels(options)) {
            Options row_options = options;
            row_options.set("mc_ipi_delay", std::to_string(delay));
            McRow row = runRow(row_options, model, 4);
            row.label = model.label;
            table.addRow(
                {row.label, TextTable::num(delay),
                 TextTable::num(row.result.staleWindowRefs),
                 TextTable::num(row.result.staleRefsPerShootdownMean, 2),
                 TextTable::num(row.result.staleGrants),
                 TextTable::num(row.result.shootdownLatencyMean, 1)});
            rows.push_back(std::move(row));
        }
    }
    table.print(std::cout);
    std::cout << "shape check: delay 0 acks before the remote issues "
                 "anything (empty window, no stale grants); the window "
                 "and the stale grants it permits grow with the delay.\n";
}

core::mc::ExplorerResult
runExplorer(const Options &options)
{
    core::mc::ExplorerConfig explorer;
    explorer.base = core::mc::McConfig::fromOptions(options);
    explorer.base.workload.seed = explorer.base.system.seed;
    explorer.seeds = options.getU64("seeds", 16);
    explorer.threads = options.threads();

    bench::printHeader(
        "C12c: schedule explorer verdict",
        "The same workload replayed under independent interleavings; "
        "every run checks that no access is granted from rights "
        "revoked before that core's ack, and that each core's "
        "hardware grants a subset of canonical rights at every "
        "quiescence point.");
    const core::mc::ExplorerResult result = core::mc::explore(explorer);
    std::cout << "schedules explored: " << result.runs.size()
              << ", shootdowns: " << result.totalShootdowns
              << ", stale grants (windowed, allowed): "
              << result.totalStaleGrants
              << ", invariant violations: " << result.totalViolations
              << " -> " << (result.passed() ? "PASS" : "FAIL") << "\n";
    if (!result.passed())
        std::cout << "first violation: " << result.firstViolation << "\n";
    return result;
}

void
writeMcJson(const std::string &path, const std::vector<McRow> &rows,
            const core::mc::ExplorerResult &explorer)
{
    std::ofstream os(path);
    if (!os)
        SASOS_FATAL("cannot open json file '", path, "'");
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "mc");
    json.key("rows");
    json.beginArray();
    for (const McRow &row : rows) {
        json.beginObject();
        json.member("model", row.label);
        json.member("cores", u64{row.cores});
        json.member("references", row.refs);
        json.member("failed", row.result.failed);
        json.member("kernelOps", row.result.kernelOps);
        json.member("shootdowns", row.result.shootdowns);
        json.member("acks", row.result.acks);
        json.member("shootdownLatencyMean",
                    row.result.shootdownLatencyMean);
        json.member("shootdownLatencyMax", row.result.shootdownLatencyMax);
        json.member("staleRefsPerShootdownMean",
                    row.result.staleRefsPerShootdownMean);
        json.member("staleWindowRefs", row.result.staleWindowRefs);
        json.member("staleGrants", row.result.staleGrants);
        json.member("invariantViolations",
                    row.result.invariantViolations +
                        row.result.hwViolations);
        json.member("cycles", row.result.cycles);
        json.endObject();
    }
    json.endArray();
    json.key("explorer");
    json.beginObject();
    json.member("schedules", u64{explorer.runs.size()});
    json.member("shootdowns", explorer.totalShootdowns);
    json.member("staleGrants", explorer.totalStaleGrants);
    json.member("violations", explorer.totalViolations);
    json.member("passed", explorer.passed());
    json.endObject();
    json.endObject();
    os << "\n";
    inform("wrote ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        std::vector<McRow> rows;
        printCoresTable(options, rows);
        printWindowTable(options, rows);
        const core::mc::ExplorerResult explorer = runExplorer(options);
        writeMcJson(options.getString("json", "BENCH_mc.json"), rows,
                    explorer);
        return explorer.passed() ? 0 : 1;
    });
}
