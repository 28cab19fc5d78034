/**
 * @file
 * Experiment T1.c: Table 1 "Distributed VM" (after Li; Carter et
 * al.'s Munin).
 *
 * Rows reproduced: Get Readable, Get Writable, Invalidate -- each a
 * trap + server upcall + per-(domain,page) rights update, the same
 * logical operation on both models (a single PLB entry update vs a
 * page-group move/TLB update).
 */

#include "bench_common.hh"

#include "workload/dvm.hh"

using namespace sasos;

namespace
{

void
printDvmTable(const Options &options)
{
    bench::printHeader(
        "Table 1: Distributed VM",
        "Li-style ownership protocol; nodes are protection domains; "
        "remote transfers charged as network round trips (Io).");

    wl::DvmConfig dvm;
    dvm.nodes = options.getU64("nodes", 4);
    dvm.sharedPages = options.getU64("sharedPages", 32);
    dvm.quanta = options.getU64("quanta", 200);
    dvm.refsPerQuantum = options.getU64("refsPerQuantum", 100);
    dvm.storeFraction = options.getDouble("storeFraction", 0.2);
    dvm.theta = options.getDouble("theta", 0.6);

    TextTable table({"system", "get-readable", "get-writable",
                     "invalidate", "protocol cycles (excl network)",
                     "vs plb"});
    double plb_cycles = 0.0;
    for (const auto &model : bench::standardModels(options)) {
        core::System sys(model.config);
        const wl::DvmResult result = wl::DvmWorkload(dvm).run(sys);
        const double protocol = static_cast<double>(
            result.cycles.totalExcludingIo().count());
        if (plb_cycles == 0.0)
            plb_cycles = protocol;
        table.addRow({model.label, TextTable::num(result.readFaults),
                      TextTable::num(result.writeFaults),
                      TextTable::num(result.invalidations),
                      TextTable::num(static_cast<u64>(protocol)),
                      bench::normalized(protocol, plb_cycles)});
    }
    table.print(std::cout);
}

void
printContentionSweep(const Options &options)
{
    bench::printHeader(
        "DVM protocol cost vs write intensity",
        "More writes mean more get-writable + invalidation episodes; "
        "per-(domain,page) rights churn is where the models differ.");

    TextTable table({"store fraction", "plb cycles", "page-group cycles",
                     "page-group group-moves", "pg/plb"});
    for (double stores : {0.05, 0.2, 0.5}) {
        wl::DvmConfig dvm;
        dvm.quanta = 120;
        dvm.refsPerQuantum = 80;
        dvm.storeFraction = stores;
        double cycles[2] = {0, 0};
        u64 moves = 0;
        int index = 0;
        for (const auto &model : bench::standardModels(options)) {
            if (model.label == "conventional")
                continue;
            core::System sys(model.config);
            const wl::DvmResult result = wl::DvmWorkload(dvm).run(sys);
            cycles[index] = static_cast<double>(
                result.cycles.totalExcludingIo().count());
            if (auto *pg = sys.pageGroupSystem())
                moves = pg->manager().pageMoves.value();
            ++index;
        }
        table.addRow({TextTable::num(stores, 2),
                      TextTable::num(static_cast<u64>(cycles[0])),
                      TextTable::num(static_cast<u64>(cycles[1])),
                      TextTable::num(moves),
                      TextTable::ratio(cycles[0] > 0
                                           ? cycles[1] / cycles[0]
                                           : 0.0,
                                       2)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printDvmTable(options);
        printContentionSweep(options);
        return 0;
    });
}
