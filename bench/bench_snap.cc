/**
 * @file
 * The snapshot subsystem's bench: the resume-equivalence oracle and
 * the warm-start sweep speedup.
 *
 * Phase 1 (oracle) runs every machine -- the four protection models,
 * a fault-injected variant and the four-core multi-core engine --
 * uninterrupted and split (run, snapshot through a file round trip,
 * restore onto freshly constructed objects, continue), and demands
 * bit-identical statistics, cycle accounts and event traces. Any
 * divergence is reported and exits nonzero.
 *
 * Phase 2 (warm start) prices the subsystem's payoff on the Table-1
 * sweep shape: K seed points per model share one warmed prefix image
 * instead of each replaying the warm-up, so the cold cost
 * K * (W + R) collapses to W + K * R. Cold and warm sweeps must stay
 * bit-identical; the speedup lands in BENCH_snap.json.
 *
 * Keys: refs= (continuation refs/cell), warm_refs= (prefix),
 * seeds=, pages=, threads=, json=, snapshot_every= (oracle
 * checkpoint cadence; default one mid-run checkpoint),
 * snapshot_out= (write the warmed single-core prefix image here),
 * restore= (preflight: restore this image into a fresh default
 * machine and continue -- corrupt or mismatched images die with a
 * clean fatal, which is the EXPERIMENTS.md rejection demo).
 */

#include "bench_common.hh"
#include "farm/campaign.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "core/mc/mc_system.hh"
#include "obs/json.hh"

using namespace sasos;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Events compared content-wise: the merge-local seq is renumbered
 * per stopTracing() call, so a split run's two trace sessions are
 * stitched and re-ordered by (cycle, tid) before comparison. */
using EventEssence = std::tuple<u64, u32, u64, u64, obs::EventKind>;

std::vector<EventEssence>
essenceOf(const std::vector<obs::Event> &events)
{
    std::vector<EventEssence> out;
    out.reserve(events.size());
    for (const obs::Event &event : events)
        out.emplace_back(event.cycle, event.tid, event.addr, event.arg,
                         event.kind);
    return out;
}

void
normalize(std::vector<EventEssence> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const EventEssence &a, const EventEssence &b) {
                         return std::tie(std::get<0>(a), std::get<1>(a)) <
                                std::tie(std::get<0>(b), std::get<1>(b));
                     });
}

constexpr u64 kOraclePages = 64;
constexpr u64 kOracleSeed = 42;

vm::VAddr
setupHeap(core::System &sys)
{
    const os::DomainId app = sys.kernel().createDomain("app");
    const vm::SegmentId seg =
        sys.kernel().createSegment("heap", kOraclePages);
    sys.kernel().attach(app, seg, vm::Access::ReadWrite);
    sys.kernel().switchTo(app);
    return sys.state().segments.find(seg)->base();
}

std::unique_ptr<wl::AddressStream>
oracleStream(vm::VAddr base)
{
    return std::make_unique<wl::WorkingSetStream>(base, kOraclePages, 8,
                                                  512);
}

std::string
dumpOf(core::System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

std::string
dumpOf(core::mc::McSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** A temp-directory path private to this process: two bench_snap
 * runs at once (two build trees under ctest, CI beside a local run)
 * must not overwrite or delete each other's image. */
std::string
scratchImagePath(const char *name)
{
    const std::string file =
        "bench_snap-" + std::to_string(::getpid()) + "-" + name;
    return (std::filesystem::temp_directory_path() / file).string();
}

/** One oracle verdict, for the table and the json artifact. */
struct OracleRow
{
    std::string machine;
    bool identical = false;
    u64 events = 0;
    u64 imageBytes = 0;
    double saveMs = 0.0;
    double restoreMs = 0.0;
    std::string diagnosis;
};

/**
 * The single-core oracle: `total` references straight through vs.
 * checkpoint/restore hops every `every` references, each hop a full
 * file round trip onto fresh objects.
 */
OracleRow
singleCoreOracle(const std::string &label,
                 const core::SystemConfig &config, u64 total, u64 every)
{
    OracleRow row;
    row.machine = label;

    obs::setThreadId(1);
    obs::startTracing();
    core::System straight(config);
    const vm::VAddr base = setupHeap(straight);
    Rng straightRng(kOracleSeed);
    auto straightStream = oracleStream(base);
    straight.run(*straightStream, total, straightRng);
    std::vector<EventEssence> straightEvents =
        essenceOf(obs::stopTracing());
    const std::string straightStats = dumpOf(straight);

    const std::string path = scratchImagePath("bench_snap_oracle.snap");
    obs::setThreadId(1);
    obs::startTracing();
    auto sys = std::make_unique<core::System>(config);
    setupHeap(*sys);
    auto rng = std::make_unique<Rng>(kOracleSeed);
    auto stream = oracleStream(base);
    std::vector<EventEssence> splitEvents;
    u64 left = total;
    while (left > 0) {
        const u64 chunk = std::min(every, left);
        sys->run(*stream, chunk, *rng);
        left -= chunk;
        if (left == 0)
            break;

        auto mark = Clock::now();
        snap::Snapshotter snapper;
        snapper.add(*sys);
        snapper.add(*rng);
        snapper.add(*stream);
        const snap::Snapshot image = std::move(snapper).finish();
        image.toFile(path);
        row.saveMs += msSince(mark);
        row.imageBytes = image.bytes.size();
        const std::vector<EventEssence> part =
            essenceOf(obs::stopTracing());
        splitEvents.insert(splitEvents.end(), part.begin(), part.end());

        obs::setThreadId(1);
        obs::startTracing();
        sys = std::make_unique<core::System>(config);
        setupHeap(*sys);
        rng = std::make_unique<Rng>(left); // overwritten by the restore
        stream = oracleStream(base);
        mark = Clock::now();
        snap::Restorer restorer(snap::Snapshot::fromFile(path));
        restorer.restore(*sys);
        restorer.restore(*rng);
        restorer.restore(*stream);
        restorer.finish();
        row.restoreMs += msSince(mark);
    }
    const std::vector<EventEssence> part = essenceOf(obs::stopTracing());
    splitEvents.insert(splitEvents.end(), part.begin(), part.end());
    std::filesystem::remove(path);

    normalize(straightEvents);
    normalize(splitEvents);
    row.events = straightEvents.size();
    row.identical = true;
    if (dumpOf(*sys) != straightStats) {
        row.identical = false;
        row.diagnosis = "stats dump diverged";
    } else if (sys->cycles().count() != straight.cycles().count()) {
        row.identical = false;
        row.diagnosis = "cycle account diverged";
    } else if (splitEvents != straightEvents) {
        row.identical = false;
        row.diagnosis = "event trace diverged";
    }
    return row;
}

core::mc::McConfig
mcOracleConfig(const Options &options)
{
    core::mc::McConfig config;
    config.system = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());
    config.cores = 4;
    config.scheduleSeed = 3;
    config.workload.stepsPerCore = 1200;
    config.workload.churnProb = 0.05;
    config.workload.seed = 11;
    config.recordOutcomes = true;
    return config;
}

/** The multi-core oracle: full run vs. run-half / file round trip /
 * restore / finish, compared on the result tally, stats and trace. */
OracleRow
mcOracle(const Options &options)
{
    OracleRow row;
    row.machine = "mc-plb-4core";
    const core::mc::McConfig config = mcOracleConfig(options);

    obs::startTracing();
    core::mc::McSystem straight(config);
    const core::mc::McResult full = straight.run();
    std::vector<EventEssence> straightEvents =
        essenceOf(obs::stopTracing());
    const std::string straightStats = dumpOf(straight);

    const std::string path = scratchImagePath("bench_snap_mc.snap");
    obs::startTracing();
    core::mc::McSystem first(config);
    first.run(config.workload.stepsPerCore * config.cores /
              (config.quantum * 2));
    std::vector<EventEssence> splitEvents;
    {
        const std::vector<EventEssence> part =
            essenceOf(obs::stopTracing());
        splitEvents.insert(splitEvents.end(), part.begin(), part.end());
    }
    auto mark = Clock::now();
    snap::Snapshotter snapper;
    snapper.add(first);
    const snap::Snapshot image = std::move(snapper).finish();
    image.toFile(path);
    row.saveMs = msSince(mark);
    row.imageBytes = image.bytes.size();

    obs::startTracing();
    core::mc::McSystem resumed(config);
    mark = Clock::now();
    snap::Restorer restorer(snap::Snapshot::fromFile(path));
    restorer.restore(resumed);
    restorer.finish();
    row.restoreMs = msSince(mark);
    const core::mc::McResult continued = resumed.run();
    {
        const std::vector<EventEssence> part =
            essenceOf(obs::stopTracing());
        splitEvents.insert(splitEvents.end(), part.begin(), part.end());
    }
    std::filesystem::remove(path);

    normalize(straightEvents);
    normalize(splitEvents);
    row.events = straightEvents.size();
    row.identical = true;
    if (dumpOf(resumed) != straightStats) {
        row.identical = false;
        row.diagnosis = "stats dump diverged";
    } else if (continued.cycles != full.cycles ||
               continued.completed != full.completed ||
               continued.failed != full.failed ||
               continued.shootdowns != full.shootdowns ||
               continued.quiescentOutcomes != full.quiescentOutcomes) {
        row.identical = false;
        row.diagnosis = "run tally diverged";
    } else if (splitEvents != straightEvents) {
        row.identical = false;
        row.diagnosis = "event trace diverged";
    }
    return row;
}

/** Phase 2: the Table-1 sweep shape, cold vs. warm-started. */
struct WarmOutcome
{
    farm::WarmReport report;
    bool identical = true;
    u64 refs = 0;
    u64 seeds = 0;
};

std::vector<farm::SweepCell>
warmSweepCells(const Options &options)
{
    const u64 seeds = options.getU64("seeds", 6);
    const u64 refs = options.getU64("refs", 50'000);
    const u64 warm_refs = options.getU64("warm_refs", 200'000);
    const u64 pages = options.getU64("pages", 256);
    std::vector<farm::SweepCell> cells;
    for (const auto &model : bench::standardModels(options)) {
        for (u64 seed = 1; seed <= seeds; ++seed) {
            farm::SweepCell cell;
            cell.model = model.label;
            cell.workload = "table1-zipf";
            cell.seed = seed;
            cell.config = model.config;
            cell.pages = pages;
            cell.references = refs;
            cell.warmRefs = warm_refs;
            cell.warmSeed = 12345;
            cell.makeStream = [](vm::VAddr base, u64 pages_, u64 seed_) {
                return std::make_unique<wl::ZipfPageStream>(base, pages_,
                                                            0.8, seed_);
            };
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

WarmOutcome
runWarmSweep(const Options &options)
{
    WarmOutcome outcome;
    outcome.refs = options.getU64("refs", 50'000);
    outcome.seeds = options.getU64("seeds", 6);
    outcome.report.warmRefs = options.getU64("warm_refs", 200'000);
    const unsigned threads = options.threads();
    const std::vector<farm::SweepCell> cells = warmSweepCells(options);
    farm::SweepRunner runner(threads);

    auto mark = Clock::now();
    std::vector<farm::CellResult> cold = runner.run(cells);
    outcome.report.coldWallSeconds =
        std::chrono::duration<double>(Clock::now() - mark).count();

    // One warmed prefix image per model; every seed forks from it.
    std::vector<farm::SweepCell> warm_cells = cells;
    mark = Clock::now();
    std::map<std::string, std::shared_ptr<const snap::Snapshot>> images;
    for (auto &cell : warm_cells) {
        auto &image = images[cell.model];
        if (!image)
            image = farm::SweepRunner::buildWarmImage(cell);
        cell.warmImage = image;
    }
    outcome.report.images = images.size();
    outcome.report.buildWallSeconds =
        std::chrono::duration<double>(Clock::now() - mark).count();

    const std::string out = options.getString("snapshot_out", "");
    if (!out.empty()) {
        // Prefer the plb image: restore= builds a plb machine by
        // default, so the image the bench writes is the image the
        // bench can read back unmodified.
        auto it = images.find("plb");
        if (it == images.end())
            it = images.begin();
        it->second->toFile(out);
        std::cout << "wrote warmed " << it->first << " prefix image to "
                  << out << "\n";
    }

    mark = Clock::now();
    std::vector<farm::CellResult> warm = runner.run(warm_cells);
    outcome.report.warmWallSeconds =
        std::chrono::duration<double>(Clock::now() - mark).count();

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (warm[i].statsDump != cold[i].statsDump ||
            warm[i].simCycles != cold[i].simCycles) {
            outcome.identical = false;
            std::cout << "MISMATCH: " << cells[i].model << "/seed="
                      << cells[i].seed
                      << " differs between cold replay and warm "
                         "restore\n";
        }
    }
    return outcome;
}

/** restore= preflight: overlay a user-supplied image onto a fresh
 * default machine and continue. Corrupt, truncated or mismatched
 * images die here with a clean fatal -- by design. */
void
maybeRestorePreflight(const Options &options)
{
    const std::string path = options.getString("restore", "");
    if (path.empty())
        return;
    core::System sys(core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem()));
    snap::Restorer restorer(snap::Snapshot::fromFile(path));
    restorer.restore(sys);
    restorer.finish();
    const u64 restored = sys.references.value();
    // Continue over the image's own heap -- the first segment the
    // snapshotted run created -- rather than anything made here.
    const std::vector<vm::SegmentId> live = sys.state().segments.liveIds();
    SASOS_ASSERT(!live.empty(), "restored image has no segments");
    const vm::Segment *heap = sys.state().segments.find(live.front());
    wl::ZipfPageStream stream(heap->base(), heap->pages, 0.8, kOracleSeed);
    Rng rng(kOracleSeed);
    sys.run(stream, 10'000, rng);
    std::cout << "restored " << path << " (" << restored
              << " references deep) and continued 10000 more; total "
              << sys.cycles().count() << " cycles\n";
}

void
writeSnapJson(const std::string &path, const std::vector<OracleRow> &rows,
              const WarmOutcome &warm, bool ok)
{
    std::ofstream os(path);
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "snap");
    json.member("ok", ok);
    json.key("resume");
    json.beginArray();
    for (const OracleRow &row : rows) {
        json.beginObject();
        json.member("machine", row.machine);
        json.member("identical", row.identical);
        json.member("events", row.events);
        json.member("imageBytes", row.imageBytes);
        json.member("saveMs", row.saveMs);
        json.member("restoreMs", row.restoreMs);
        json.endObject();
    }
    json.endArray();
    json.key("warmStart");
    json.beginObject();
    json.member("warmRefs", warm.report.warmRefs);
    json.member("refsPerCell", warm.refs);
    json.member("seedsPerModel", warm.seeds);
    json.member("images", warm.report.images);
    json.member("identical", warm.identical);
    json.member("coldWallSeconds", warm.report.coldWallSeconds);
    json.member("buildWallSeconds", warm.report.buildWallSeconds);
    json.member("warmWallSeconds", warm.report.warmWallSeconds);
    json.member("speedup", warm.report.speedup());
    json.endObject();
    json.endObject();
    os << "\n";
}

int
runSnapBench(const Options &options)
{
    maybeRestorePreflight(options);

    bench::printHeader(
        "Resume-equivalence oracle",
        "Run, snapshot through a file round trip, restore onto fresh "
        "objects, continue: statistics, cycle account and event trace "
        "must be bit-identical to the uninterrupted run.");

    const u64 oracle_refs = options.getU64("oracle_refs", 40'000);
    const u64 every =
        options.getU64("snapshot_every", oracle_refs / 2);

    std::vector<OracleRow> rows;
    for (const auto &model : bench::standardModels(options)) {
        rows.push_back(singleCoreOracle(model.label, model.config,
                                        oracle_refs, every));
    }
    {
        core::SystemConfig faulty = core::SystemConfig::fromOptions(
            options, core::SystemConfig::plbSystem());
        faulty.faults.enabled = true;
        faulty.faults.seed = 7;
        faulty.faults.rate = 0.02;
        rows.push_back(
            singleCoreOracle("plb+faults", faulty, oracle_refs, every));
    }
    rows.push_back(mcOracle(options));

    TextTable table({"machine", "resume", "events", "image KB",
                     "save ms", "restore ms"});
    bool all_identical = true;
    for (const OracleRow &row : rows) {
        all_identical = all_identical && row.identical;
        table.addRow(
            {row.machine,
             row.identical ? "bit-identical" : "DIVERGED: " + row.diagnosis,
             TextTable::num(row.events),
             TextTable::num(static_cast<double>(row.imageBytes) / 1024.0,
                            1),
             TextTable::num(row.saveMs, 2),
             TextTable::num(row.restoreMs, 2)});
    }
    table.print(std::cout);

    bench::printHeader(
        "Warm-start sweep: Table-1 shape, K seeds per model",
        "Cold replays the warm-up prefix in every cell (K * (W + R) "
        "references per model); warm builds one prefix image and "
        "forks every seed from it (W + K * R). Results must stay "
        "bit-identical.");

    const WarmOutcome warm = runWarmSweep(options);
    std::cout << "cold="
              << TextTable::num(warm.report.coldWallSeconds, 2)
              << "s warm="
              << TextTable::num(warm.report.buildWallSeconds +
                                    warm.report.warmWallSeconds,
                                2)
              << "s (build "
              << TextTable::num(warm.report.buildWallSeconds, 2)
              << "s) speedup="
              << TextTable::ratio(warm.report.speedup(), 2) << " results "
              << (warm.identical ? "bit-identical" : "MISMATCH") << "\n";

    const bool ok = all_identical && warm.identical;
    const std::string json_path =
        options.getString("json", "BENCH_snap.json");
    writeSnapJson(json_path, rows, warm, ok);
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, runSnapBench);
}
