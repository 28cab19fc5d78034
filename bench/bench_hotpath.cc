/**
 * @file
 * The hot-path microbench: per-model System::run throughput in
 * isolation -- one System, one stream, no pool -- next to per-call
 * access() over the same references with the same-page memo dropped
 * before each one.
 *
 * Two things come out of each (model x stream) row:
 *
 *  - host throughput (refs/sec) and simulated cycles/ref for
 *    System::run, the number the sweep engine's wall-clock stands on,
 *    with the memo-free per-call rate alongside;
 *  - a bit-identity verdict: the run's full stats dump and cycle
 *    account must equal the memo-free per-call run's, reference for
 *    reference. A MISMATCH fails the bench (nonzero exit), so this
 *    doubles as the direct oracle for the memo's replays.
 *
 * Emits BENCH_hotpath.json ("batched" names the System::run side):
 *
 *   { "bench": "hotpath", "reps": R,
 *     "rows": [ { "model", "workload", "references", "simCycles",
 *                 "simCyclesPerRef", "batchedRefsPerSec",
 *                 "perCallRefsPerSec", "identical" } ],
 *     "totals": { "references", "batchedRefsPerSec",
 *                 "perCallRefsPerSec" } }
 *
 * Keys: refs= (default 200000), pages=, seed=, reps= (best-of, wall
 * clock only; default 3), json=.
 */

#include "bench_common.hh"
#include "farm/campaign.hh"

#include <chrono>

using namespace sasos;

namespace
{

struct HotpathRow
{
    std::string model;
    std::string workload;
    u64 references = 0;
    u64 simCycles = 0;
    double runSeconds = 0.0;
    double perCallSeconds = 0.0;
    bool identical = true;
};

vm::VAddr
setupSystem(core::System &sys, u64 pages)
{
    const os::DomainId app = sys.kernel().createDomain("app");
    const vm::SegmentId seg = sys.kernel().createSegment("heap", pages);
    sys.kernel().attach(app, seg, vm::Access::ReadWrite);
    sys.kernel().switchTo(app);
    return sys.state().segments.find(seg)->base();
}

std::string
statsOf(core::System &sys)
{
    std::ostringstream dump;
    sys.dumpStats(dump);
    return dump.str();
}

/** One (model x stream) row: identical references through
 * System::run and through a memo-free per-call access() loop,
 * best-of-`reps` wall clock each, one bit-identity comparison. */
HotpathRow
measure(const bench::ModelUnderTest &model, const std::string &workload,
        const farm::StreamFactory &factory, u64 refs, u64 pages, u64 seed,
        u64 reps)
{
    HotpathRow row;
    row.model = model.label;
    row.workload = workload;
    row.references = refs;

    std::string run_stats;
    std::string per_call_stats;
    for (u64 rep = 0; rep < reps; ++rep) {
        // Fresh system per rep: every rep times the same cold-start
        // reference sequence, so reps differ only in host noise.
        core::System sys(model.config);
        const vm::VAddr base = setupSystem(sys, pages);
        Rng rng(seed);
        auto stream = factory(base, pages, seed);
        const auto start = std::chrono::steady_clock::now();
        sys.run(*stream, refs, rng);
        const auto stop = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(stop - start).count();
        if (rep == 0 || secs < row.runSeconds)
            row.runSeconds = secs;
        if (rep == 0) {
            row.simCycles = sys.cycles().count();
            run_stats = statsOf(sys);
        }
    }
    for (u64 rep = 0; rep < reps; ++rep) {
        core::System sys(model.config);
        const vm::VAddr base = setupSystem(sys, pages);
        Rng rng(seed);
        auto stream = factory(base, pages, seed);
        const auto start = std::chrono::steady_clock::now();
        for (u64 i = 0; i < refs; ++i) {
            sys.model().dropMemo();
            sys.load(stream->next(rng));
        }
        const auto stop = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(stop - start).count();
        if (rep == 0 || secs < row.perCallSeconds)
            row.perCallSeconds = secs;
        if (rep == 0)
            per_call_stats = statsOf(sys);
    }
    row.identical = run_stats == per_call_stats;
    return row;
}

int
runHotpath(const Options &options)
{
    const u64 refs = options.getU64("refs", 200'000);
    const u64 pages = options.getU64("pages", 256);
    const u64 seed = options.getU64("seed", 7);
    const u64 reps = options.getU64("reps", 3);
    const std::string json_path =
        options.getString("json", "BENCH_hotpath.json");

    bench::printHeader(
        "Hot path: System::run vs per-call access",
        "Same references through System::run (the same-page memo "
        "live) and through an access() call per reference with the "
        "memo dropped before each. Simulated results must be "
        "bit-identical.");

    std::vector<HotpathRow> rows;
    bool identical = true;
    for (const auto &model : bench::standardModels(options)) {
        for (const auto &[name, factory] : farm::standardStreams()) {
            rows.push_back(measure(model, name, factory, refs, pages,
                                   seed, reps));
            if (!rows.back().identical) {
                identical = false;
                std::cout << "MISMATCH: " << model.label << "/" << name
                          << " run stats differ from per-call\n";
            }
        }
    }

    TextTable table({"model", "workload", "cycles/ref", "run Mrefs/s",
                     "per-call Mrefs/s"});
    std::string last_model;
    double run_secs = 0.0;
    double per_call_secs = 0.0;
    u64 total_refs = 0;
    for (const HotpathRow &row : rows) {
        table.addRow(
            {row.model == last_model ? "" : row.model, row.workload,
             TextTable::num(
                 bench::cyclesPerRef(row.simCycles, row.references), 2),
             TextTable::num(
                 bench::refsPerSecond(row.references, row.runSeconds) /
                     1e6,
                 2),
             TextTable::num(bench::refsPerSecond(row.references,
                                                 row.perCallSeconds) /
                                1e6,
                            2)});
        last_model = row.model;
        run_secs += row.runSeconds;
        per_call_secs += row.perCallSeconds;
        total_refs += row.references;
    }
    table.print(std::cout);

    const double run_total = bench::refsPerSecond(total_refs, run_secs);
    const double per_call_total =
        bench::refsPerSecond(total_refs, per_call_secs);
    std::cout << "\nrows=" << rows.size() << " refs/row=" << refs
              << " reps=" << reps
              << " run=" << TextTable::num(run_total / 1e6, 2)
              << " Mrefs/s per-call="
              << TextTable::num(per_call_total / 1e6, 2)
              << " Mrefs/s results "
              << (identical ? "bit-identical" : "MISMATCH") << "\n";

    std::ofstream os(json_path);
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "hotpath");
    json.member("reps", reps);
    json.key("rows");
    json.beginArray();
    for (const HotpathRow &row : rows) {
        json.beginObject();
        json.member("model", row.model);
        json.member("workload", row.workload);
        json.member("references", row.references);
        json.member("simCycles", row.simCycles);
        json.member("simCyclesPerRef",
                    bench::cyclesPerRef(row.simCycles, row.references));
        json.member("batchedRefsPerSec",
                    bench::refsPerSecond(row.references, row.runSeconds));
        json.member("perCallRefsPerSec",
                    bench::refsPerSecond(row.references,
                                         row.perCallSeconds));
        json.member("identical", row.identical);
        json.endObject();
    }
    json.endArray();
    json.key("totals");
    json.beginObject();
    json.member("references", total_refs);
    json.member("batchedRefsPerSec", run_total);
    json.member("perCallRefsPerSec", per_call_total);
    json.endObject();
    json.endObject();
    os << "\n";
    std::cout << "wrote " << json_path << "\n";

    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, runHotpath);
}
