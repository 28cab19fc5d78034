/**
 * @file
 * The parallel sweep engine bench: every (architecture x reference
 * stream x seed) cell of a design-space sweep run twice, serially and
 * across host threads (parallelFor), verifying bit-identical simulated
 * results and reporting the wall-clock speedup and per-cell
 * throughput (refs/sec, simulated cycles/ref).
 *
 * Emits BENCH_sweep.json (schema in farm/campaign.hh) so the perf
 * trajectory of the driver layer is tracked across changes.
 *
 * With warm_refs=N each cell runs an N-reference warm-up prefix
 * before its measured references. The sweep then runs twice more:
 * cold (every cell replays the prefix) and warm (one prefix image per
 * model x stream family, restored by every seed), verifies the two
 * produce bit-identical simulated results, and reports the warm-start
 * speedup in the json's "warm" block.
 *
 * Keys: threads= (default: hardware concurrency), seeds=, refs=,
 * pages=, json=, compare= (0 skips the serial reference run),
 * warm_refs=, warm_seed=.
 */

#include "bench_common.hh"
#include "farm/campaign.hh"

#include <chrono>
#include <map>

using namespace sasos;

namespace
{

std::vector<farm::SweepCell>
buildCells(const Options &options)
{
    const u64 seeds = options.getU64("seeds", 4);
    const u64 refs = options.getU64("refs", 200'000);
    const u64 pages = options.getU64("pages", 256);
    const u64 warm_refs = options.getU64("warm_refs", 0);
    const u64 warm_seed = options.getU64("warm_seed", 12345);
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
                cell.warmRefs = warm_refs;
                cell.warmSeed = warm_seed;
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

double
timedSweep(unsigned threads, const std::vector<farm::SweepCell> &cells,
           std::vector<farm::CellResult> &results)
{
    const auto start = std::chrono::steady_clock::now();
    farm::SweepRunner runner(threads);
    results = runner.run(cells);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

int
runSweep(const Options &options)
{
    const unsigned threads = options.threads();
    const bool compare = options.getBool("compare", true) && threads > 1;
    const std::string json_path =
        options.getString("json", "BENCH_sweep.json");
    const auto cells = buildCells(options);

    bench::printHeader(
        "Parallel sweep engine: models x streams x seeds",
        "Each cell is one self-contained System; host threads run cells "
        "concurrently and System::run issues the references "
        "within a cell. Simulated results are bit-identical to the "
        "serial run.");

    std::vector<farm::CellResult> serial;
    double serial_wall = 0.0;
    if (compare || threads <= 1)
        serial_wall = timedSweep(1, cells, serial);

    std::vector<farm::CellResult> parallel;
    double parallel_wall = 0.0;
    if (threads > 1) {
        parallel_wall = timedSweep(threads, cells, parallel);
    } else {
        parallel = serial;
        parallel_wall = serial_wall;
    }

    bool identical = true;
    if (compare) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (serial[i].statsDump != parallel[i].statsDump ||
                serial[i].simCycles != parallel[i].simCycles) {
                identical = false;
                std::cout << "MISMATCH: cell " << i << " ("
                          << cells[i].model << "/" << cells[i].workload
                          << "/seed=" << cells[i].seed
                          << ") differs between threads=1 and threads="
                          << threads << "\n";
            }
        }
    }

    // Warm-start mode: restore each family's shared prefix image
    // instead of replaying the prefix, and verify the shortcut is
    // invisible in the simulated results.
    const u64 warm_refs = options.getU64("warm_refs", 0);
    farm::WarmReport warm_report;
    if (warm_refs > 0) {
        warm_report.warmRefs = warm_refs;
        warm_report.coldWallSeconds = parallel_wall;

        std::vector<farm::SweepCell> warm_cells = cells;
        const auto build_start = std::chrono::steady_clock::now();
        std::map<std::pair<std::string, std::string>,
                 std::shared_ptr<const snap::Snapshot>>
            images;
        for (auto &cell : warm_cells) {
            auto &image = images[{cell.model, cell.workload}];
            if (!image)
                image = farm::SweepRunner::buildWarmImage(cell);
            cell.warmImage = image;
        }
        const auto build_stop = std::chrono::steady_clock::now();
        warm_report.images = images.size();
        warm_report.buildWallSeconds =
            std::chrono::duration<double>(build_stop - build_start)
                .count();

        std::vector<farm::CellResult> warm;
        warm_report.warmWallSeconds = timedSweep(threads, warm_cells, warm);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (warm[i].statsDump != parallel[i].statsDump ||
                warm[i].simCycles != parallel[i].simCycles) {
                identical = false;
                std::cout << "MISMATCH: cell " << i << " ("
                          << cells[i].model << "/" << cells[i].workload
                          << "/seed=" << cells[i].seed
                          << ") differs between cold replay and warm "
                             "restore\n";
            }
        }
    }

    // Per (model, workload) aggregate over seeds.
    TextTable table({"model", "workload", "cells", "cycles/ref",
                     "Mrefs/s", "cell wall (ms)"});
    std::string last_model;
    for (const auto &model : bench::standardModels(options)) {
        for (const auto &[name, factory] : farm::standardStreams()) {
            u64 refs = 0, cycles = 0, count = 0;
            double wall = 0.0;
            for (const auto &cell : parallel) {
                if (cell.model != model.label || cell.workload != name)
                    continue;
                refs += cell.references;
                cycles += cell.simCycles;
                wall += cell.wallSeconds;
                ++count;
            }
            table.addRow({model.label == last_model ? "" : model.label,
                          name, TextTable::num(count),
                          TextTable::num(bench::cyclesPerRef(cycles, refs),
                                         2),
                          TextTable::num(
                              bench::refsPerSecond(refs, wall) / 1e6, 2),
                          TextTable::num(wall * 1e3 /
                                             static_cast<double>(count),
                                         1)});
            last_model = model.label;
        }
    }
    table.print(std::cout);

    u64 total_refs = 0;
    for (const auto &cell : parallel)
        total_refs += cell.references;
    std::cout << "\ncells=" << cells.size() << " threads=" << threads
              << " wall=" << TextTable::num(parallel_wall, 2) << "s"
              << " throughput="
              << TextTable::num(
                     bench::refsPerSecond(total_refs, parallel_wall) / 1e6,
                     2)
              << " Mrefs/s\n";
    if (compare) {
        std::cout << "serial wall=" << TextTable::num(serial_wall, 2)
                  << "s speedup="
                  << TextTable::ratio(serial_wall / parallel_wall, 2)
                  << " results "
                  << (identical ? "bit-identical" : "MISMATCH") << "\n";
    }
    if (warm_refs > 0) {
        std::cout << "warm-start: prefix=" << warm_refs << " refs, "
                  << warm_report.images << " images, cold="
                  << TextTable::num(warm_report.coldWallSeconds, 2)
                  << "s warm="
                  << TextTable::num(warm_report.buildWallSeconds +
                                        warm_report.warmWallSeconds,
                                    2)
                  << "s (build "
                  << TextTable::num(warm_report.buildWallSeconds, 2)
                  << "s) speedup="
                  << TextTable::ratio(warm_report.speedup(), 2) << "\n";
    }

    writeSweepJson(json_path, parallel, threads, parallel_wall,
                   serial_wall,
                   warm_refs > 0 ? &warm_report : nullptr);
    std::cout << "wrote " << json_path << "\n";
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, runSweep);
}
