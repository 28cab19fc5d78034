/**
 * @file
 * Experiment T1.b: Table 1 "Concurrent Garbage Collection" (after
 * Appel, Ellis & Li).
 *
 * Rows reproduced:
 *  - "Flip Spaces": domain-page pays a PLB scan to revoke from-space;
 *    page-group swaps group identifiers in O(1);
 *  - "Access unscanned to-space": one trap + upcall + rights update
 *    per page touched, on every model.
 */

#include "bench_common.hh"

#include "workload/gc.hh"

using namespace sasos;

namespace
{

void
printGcTable(const Options &options)
{
    bench::printHeader(
        "Table 1: Concurrent Garbage Collection",
        "Appel-Ellis-Li: flip spaces, then scan pages on mutator "
        "faults. Flip = detach(from-space) + attach(to-space, "
        "collector RW / mutator none).");

    wl::GcConfig gc;
    gc.collections = options.getU64("collections", 8);
    gc.spacePages = options.getU64("spacePages", 64);
    gc.allocsPerCollection = options.getU64("allocs", 256);
    gc.refsPerAlloc = options.getU64("refsPerAlloc", 32);

    TextTable table({"system", "flips", "cycles/flip", "scan faults",
                     "cycles/scan-fault", "total cycles (excl io)",
                     "vs plb"});
    double plb_total = 0.0;
    for (const auto &model : bench::standardModels(options)) {
        core::System sys(model.config);
        const wl::GcResult result = wl::GcWorkload(gc).run(sys);
        const double total = static_cast<double>(
            result.cycles.totalExcludingIo().count());
        if (plb_total == 0.0)
            plb_total = total;
        const double trap_and_upcall =
            static_cast<double>(
                result.cycles.byCategory(CostCategory::Trap).count() +
                result.cycles.byCategory(CostCategory::Upcall).count());
        table.addRow(
            {model.label, TextTable::num(result.flips),
             TextTable::num(result.flips
                                ? static_cast<double>(result.flipCycles) /
                                      result.flips
                                : 0.0,
                            0),
             TextTable::num(result.scanFaults),
             TextTable::num(result.scanFaults
                                ? trap_and_upcall / result.scanFaults
                                : 0.0,
                            0),
             TextTable::num(static_cast<u64>(total)),
             bench::normalized(total, plb_total)});
    }
    table.print(std::cout);
    std::cout << "shape check: page-group flip cycles < plb flip cycles "
                 "(O(1) group swap vs PLB scan)\n";
}

void
printFlipScalingTable(const Options &options)
{
    bench::printHeader(
        "Flip cost vs semi-space size",
        "The PLB flip scans hardware state; the page-group flip does "
        "not, so its cost stays flat as the heap grows.");

    TextTable table({"space pages", "plb cycles/flip",
                     "page-group cycles/flip", "plb/page-group"});
    for (u64 pages : {16, 64, 256}) {
        wl::GcConfig gc;
        gc.collections = 4;
        gc.spacePages = pages;
        gc.allocsPerCollection = 64;
        gc.refsPerAlloc = 8;
        double per_flip[2] = {0, 0};
        int index = 0;
        for (const auto &model : bench::standardModels(options)) {
            if (model.label == "conventional")
                continue;
            core::System sys(model.config);
            const wl::GcResult result = wl::GcWorkload(gc).run(sys);
            per_flip[index++] =
                result.flips ? static_cast<double>(result.flipCycles) /
                                   result.flips
                             : 0.0;
        }
        table.addRow({TextTable::num(pages),
                      TextTable::num(per_flip[0], 0),
                      TextTable::num(per_flip[1], 0),
                      TextTable::ratio(per_flip[1] > 0
                                           ? per_flip[0] / per_flip[1]
                                           : 0.0,
                                       1)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printGcTable(options);
        printFlipScalingTable(options);
        return 0;
    });
}
