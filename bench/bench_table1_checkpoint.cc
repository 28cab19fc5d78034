/**
 * @file
 * Experiment T1.e: Table 1 "Concurrent Checkpoint" (after Li,
 * Naughton & Plank).
 *
 * Rows reproduced:
 *  - "Restrict Access": drop the application to read-only over the
 *    whole segment at once (PLB: inspect each entry; page-group: a
 *    segment-wide rights change);
 *  - "Checkpoint Page": per-page trap -> disk write -> reopen
 *    read-write.
 */

#include "bench_common.hh"

#include "workload/checkpoint.hh"

using namespace sasos;

namespace
{

void
printCheckpointTable(const Options &options)
{
    bench::printHeader(
        "Table 1: Concurrent Checkpoint",
        "Copy-on-write checkpoint of a live segment, with a "
        "background sweeper.");

    wl::CheckpointConfig ckpt;
    ckpt.checkpoints = options.getU64("checkpoints", 4);
    ckpt.dataPages = options.getU64("dataPages", 64);
    ckpt.refsBetween = options.getU64("refsBetween", 4000);

    TextTable table({"system", "checkpoints", "cow faults", "swept",
                     "restrict cycles/ckpt",
                     "total cycles (excl disk)", "vs plb"});
    double plb_total = 0.0;
    for (const auto &model : bench::standardModels(options)) {
        core::System sys(model.config);
        const wl::CheckpointResult result =
            wl::CheckpointWorkload(ckpt).run(sys);
        const double total = static_cast<double>(
            result.cycles.totalExcludingIo().count());
        if (plb_total == 0.0)
            plb_total = total;
        table.addRow(
            {model.label, TextTable::num(result.checkpoints),
             TextTable::num(result.copyOnWriteFaults),
             TextTable::num(result.sweptPages),
             TextTable::num(result.checkpoints
                                ? static_cast<double>(
                                      result.restrictCycles) /
                                      result.checkpoints
                                : 0.0,
                            0),
             TextTable::num(static_cast<u64>(total)),
             bench::normalized(total, plb_total)});
    }
    table.print(std::cout);
}

void
printRestrictScaling(const Options &options)
{
    bench::printHeader(
        "Restrict-access cost vs segment size",
        "The per-checkpoint restrict step: the PLB model inspects "
        "hardware entries; cost comparison as the protected segment "
        "grows.");

    TextTable table({"data pages", "plb restrict", "page-group restrict",
                     "conventional restrict", "pkey restrict"});
    for (u64 pages : {32, 64, 128}) {
        wl::CheckpointConfig ckpt;
        ckpt.checkpoints = 2;
        ckpt.dataPages = pages;
        ckpt.refsBetween = 1500;
        std::vector<std::string> row{TextTable::num(pages)};
        for (const auto &model : bench::standardModels(options)) {
            core::System sys(model.config);
            const wl::CheckpointResult result =
                wl::CheckpointWorkload(ckpt).run(sys);
            row.push_back(TextTable::num(
                result.checkpoints
                    ? static_cast<double>(result.restrictCycles) /
                          result.checkpoints
                    : 0.0,
                0));
        }
        table.addRow(row);
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printCheckpointTable(options);
        printRestrictScaling(options);
        return 0;
    });
}
