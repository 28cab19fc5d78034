/**
 * @file
 * The sweep-farm equivalence oracle.
 *
 * Builds one campaign (the standard four protection models x stream
 * recipes x seeds, plus fault-injected cells), runs it twice -- once
 * serially through SweepRunner(1), once sharded across forked worker
 * processes by the farm coordinator with the chaos knobs engaged --
 * and demands the farmed results be bit-identical to the serial ones:
 * per-cell stats dump and cycle account compared in memory, and the
 * deterministic section of BENCH_farm.json compared byte for byte
 * after both result sets pass through the same JSON writer. The exit
 * code is the verdict, so CI and ctest gate on it directly.
 *
 * Knobs: farm_workers=, farm_checkpoint_every=, farm_kill_rate=,
 * farm_migrate_rate=, farm_kill_seed= (see help=1). With a nonzero
 * kill rate the oracle also proves crash recovery: killed workers'
 * cells are resumed from their last checkpoint image (or restarted)
 * and still land on the serial answer.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "farm/campaign.hh"
#include "farm/coordinator.hh"
#include "obs/json.hh"
#include "sim/table.hh"

using namespace sasos;

namespace
{

using Clock = std::chrono::steady_clock;

/** FNV-1a 64-bit hash of a byte range: the per-cell statsFnv digest
 * in BENCH_farm.json. */
u64
fnv1a(const u8 *data, std::size_t size)
{
    u64 hash = 14695981039346656037ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

farm::Campaign
buildCampaign(const Options &options)
{
    const u64 refs = options.getU64("refs", 30'000);
    const u64 seeds = options.getU64("seeds", 2);
    const u64 pages = options.getU64("pages", 256);

    std::vector<farm::SweepCell> cells;
    for (const auto &model : bench::standardModels(options)) {
        for (const auto &[name, factory] : farm::standardStreams()) {
            for (u64 seed = 1; seed <= seeds; ++seed) {
                farm::SweepCell cell;
                cell.model = model.label;
                cell.workload = name;
                cell.seed = seed;
                cell.config = model.config;
                cell.pages = pages;
                cell.references = refs;
                cell.makeStream = factory;
                cells.push_back(std::move(cell));
            }
        }
    }
    // Fault-injected cells: recovery must reproduce injected
    // failures, not just clean runs.
    for (const auto &model : bench::standardModels(options)) {
        farm::SweepCell cell;
        cell.model = model.label + "+faults";
        cell.workload = "zipf";
        cell.seed = 7;
        cell.config = model.config;
        cell.config.faults.enabled = true;
        cell.config.faults.seed = 7;
        cell.config.faults.rate = 0.02;
        cell.pages = pages;
        cell.references = refs;
        cell.makeStream = farm::standardStreams()[2].second;
        cells.push_back(std::move(cell));
    }
    return farm::Campaign(std::move(cells));
}

/**
 * The deterministic per-cell section of BENCH_farm.json: everything a
 * cell's result contains except wall-clock. The farmed and the serial
 * results both render through this one writer, and the two strings
 * must match byte for byte -- the merged-artifact half of the oracle.
 */
void
writeDeterministicCells(obs::JsonWriter &json,
                        const std::vector<farm::CellResult> &results)
{
    json.beginArray();
    for (const farm::CellResult &cell : results) {
        json.beginObject();
        json.member("id", cell.id);
        json.member("model", cell.model);
        json.member("workload", cell.workload);
        json.member("seed", cell.seed);
        json.member("references", cell.references);
        json.member("completed", cell.completed);
        json.member("failed", cell.failed);
        json.member("simCycles", cell.simCycles);
        std::ostringstream fnv;
        fnv << std::hex
            << fnv1a(reinterpret_cast<const u8 *>(cell.statsDump.data()),
                     cell.statsDump.size());
        json.member("statsFnv", fnv.str());
        json.endObject();
    }
    json.endArray();
}

std::string
renderDeterministicCells(const std::vector<farm::CellResult> &results)
{
    std::ostringstream os;
    obs::JsonWriter json(os);
    writeDeterministicCells(json, results);
    return os.str();
}

void
writeFarmJson(const std::string &path, const farm::FarmOptions &fopts,
              const farm::FarmResult &farmed,
              const std::vector<farm::CellResult> &results, bool ok,
              bool stats_identical, bool json_identical,
              double serial_wall)
{
    std::ofstream os(path);
    obs::JsonWriter json(os);
    json.beginObject();
    json.member("bench", "farm");
    json.member("ok", ok);
    json.member("workers", fopts.workers);
    json.member("checkpointEvery", fopts.checkpointEvery);
    json.member("killRate", fopts.killRate);
    json.member("migrateRate", fopts.migrateRate);
    json.member("killSeed", fopts.killSeed);
    json.member("identicalStats", stats_identical);
    json.member("identicalJson", json_identical);
    json.member("serialWallSeconds", serial_wall);
    json.member("farmWallSeconds", farmed.wallSeconds);
    json.member("speedup", farmed.wallSeconds > 0.0
                               ? serial_wall / farmed.wallSeconds
                               : 0.0);
    json.key("farm");
    json.beginObject();
    json.member("forks", farmed.stats.forks);
    json.member("deaths", farmed.stats.deaths);
    json.member("chaosKills", farmed.stats.chaosKills);
    json.member("timeouts", farmed.stats.timeouts);
    json.member("retries", farmed.stats.retries);
    json.member("checkpointImages", farmed.stats.checkpointImages);
    json.member("preempts", farmed.stats.preempts);
    json.member("migrations", farmed.stats.migrations);
    json.member("resumes", farmed.stats.resumes);
    json.member("rejectedImages", farmed.stats.rejectedImages);
    json.member("poisonedFrames", farmed.stats.poisonedFrames);
    json.member("duplicateResults", farmed.stats.duplicateResults);
    json.endObject();
    json.key("cells");
    writeDeterministicCells(json, results);
    json.endObject();
    os << "\n";
}

int
runFarmBench(const Options &options)
{
    farm::FarmOptions fopts = farm::FarmOptions::fromOptions(options);
    const farm::Campaign campaign = buildCampaign(options);

    bench::printHeader(
        "Farm equivalence oracle",
        "Shard the campaign across " + std::to_string(fopts.workers) +
            " forked workers (chaos kill rate " +
            TextTable::num(fopts.killRate, 2) + ", migrate rate " +
            TextTable::num(fopts.migrateRate, 2) +
            "); the merged results must be bit-identical to a serial "
            "run of the same campaign.");

    const auto serial_mark = Clock::now();
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);
    const double serial_wall =
        std::chrono::duration<double>(Clock::now() - serial_mark).count();

    const farm::FarmResult farmed = farm::runFarm(campaign, fopts);
    if (!farmed.ok) {
        std::cout << "FARM FAILED: " << farmed.error << "\n";
        return 1;
    }

    bool stats_identical = true;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const farm::CellResult &want = serial[i];
        const farm::CellResult &got = farmed.results[i];
        if (got.id != want.id || got.statsDump != want.statsDump ||
            got.simCycles != want.simCycles ||
            got.completed != want.completed ||
            got.failed != want.failed) {
            stats_identical = false;
            std::cout << "MISMATCH: cell id " << want.id << " ("
                      << want.model << "/" << want.workload << "/seed="
                      << want.seed << ") diverged from the serial run\n";
        }
    }

    const std::string serial_json = renderDeterministicCells(serial);
    const std::string farmed_json =
        renderDeterministicCells(farmed.results);
    const bool json_identical = serial_json == farmed_json;
    if (!json_identical)
        std::cout << "MISMATCH: deterministic BENCH JSON section "
                     "differs between farmed and serial results\n";

    const bool ok = stats_identical && json_identical;

    TextTable table({"cells", "workers", "forks", "chaos kills",
                     "retries", "resumes", "migrations", "images",
                     "verdict"});
    table.addRow({TextTable::num(static_cast<u64>(campaign.size())),
                  TextTable::num(static_cast<u64>(fopts.workers)),
                  TextTable::num(farmed.stats.forks),
                  TextTable::num(farmed.stats.chaosKills),
                  TextTable::num(farmed.stats.retries),
                  TextTable::num(farmed.stats.resumes),
                  TextTable::num(farmed.stats.migrations),
                  TextTable::num(farmed.stats.checkpointImages),
                  ok ? "bit-identical" : "DIVERGED"});
    table.print(std::cout);
    std::cout << "serial=" << TextTable::num(serial_wall, 2)
              << "s farm=" << TextTable::num(farmed.wallSeconds, 2)
              << "s speedup="
              << TextTable::ratio(farmed.wallSeconds > 0.0
                                      ? serial_wall / farmed.wallSeconds
                                      : 0.0,
                                  2)
              << "\n";

    const std::string json_path =
        options.getString("json", "BENCH_farm.json");
    writeFarmJson(json_path, fopts, farmed, farmed.results, ok,
                  stats_identical, json_identical, serial_wall);
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, runFarmBench);
}
