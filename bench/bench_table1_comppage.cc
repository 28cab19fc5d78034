/**
 * @file
 * Experiment T1.f: Table 1 "Compression Paging" (after Appel & Li).
 *
 * Rows reproduced:
 *  - "Page-out": exclude applications (PLB scan-update vs move to
 *    the pager-private group), compress, write, unmap;
 *  - "Page-in": map, read, decompress, restore client access.
 */

#include "bench_common.hh"

#include "workload/comppage.hh"

using namespace sasos;

namespace
{

void
printCompPageTable(const Options &options)
{
    bench::printHeader(
        "Table 1: Compression Paging",
        "Data set 2x physical memory; Zipf-skewed references; the "
        "user-level pager compresses victims.");

    wl::CompPageConfig cp;
    cp.dataPages = options.getU64("dataPages", 256);
    cp.frames = options.getU64("framesOpt", 128);
    cp.references = options.getU64("references", 20000);
    cp.theta = options.getDouble("theta", 0.7);

    TextTable table({"system", "page-ins", "page-outs",
                     "fault rate", "protection cycles (excl io)",
                     "vs plb"});
    double plb_cycles = 0.0;
    for (const auto &model : bench::standardModels(options)) {
        core::SystemConfig config = model.config;
        config.frames = cp.frames;
        core::System sys(config);
        const wl::CompPageResult result =
            wl::CompPageWorkload(cp).run(sys);
        const double protection = static_cast<double>(
            result.cycles.totalExcludingIo().count());
        if (plb_cycles == 0.0)
            plb_cycles = protection;
        table.addRow({model.label, TextTable::num(result.pageIns),
                      TextTable::num(result.pageOuts),
                      TextTable::num(result.faultRate() * 100.0, 2) + "%",
                      TextTable::num(static_cast<u64>(protection)),
                      bench::normalized(protection, plb_cycles)});
    }
    table.print(std::cout);
}

void
printPerOperationBreakdown(const Options &options)
{
    bench::printHeader(
        "Single page-out / page-in decomposition",
        "Cycle cost of one paging operation by category (one warm "
        "page, no compression of the comparison by other activity).");

    TextTable table({"system", "op", "kernel work", "flush", "trap+upcall",
                     "total (excl disk)"});
    for (const auto &model : bench::standardModels(options)) {
        core::System sys(model.config);
        auto &kernel = sys.kernel();
        os::Pager &pager = sys.makePager(os::PagerConfig{true});
        const os::DomainId d = kernel.createDomain("app");
        const vm::SegmentId seg = kernel.createSegment("s", 8);
        kernel.attach(d, seg, vm::Access::ReadWrite);
        kernel.attach(pager.domainId(), seg, vm::Access::ReadWrite);
        kernel.switchTo(d);
        const vm::VAddr base = sys.state().segments.find(seg)->base();
        sys.touchRange(base, 8 * vm::kPageBytes);

        for (const char *op : {"page-out", "page-in"}) {
            const CycleAccount before = sys.account();
            if (op[5] == 'o')
                pager.pageOut(vm::pageOf(base));
            else
                pager.pageIn(vm::pageOf(base));
            const CycleAccount delta = sys.account().since(before);
            table.addRow(
                {model.label, op,
                 TextTable::num(
                     delta.byCategory(CostCategory::KernelWork).count()),
                 TextTable::num(
                     delta.byCategory(CostCategory::Flush).count()),
                 TextTable::num(
                     delta.byCategory(CostCategory::Trap).count() +
                     delta.byCategory(CostCategory::Upcall).count()),
                 TextTable::num(delta.totalExcludingIo().count())});
        }
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printCompPageTable(options);
        printPerOperationBreakdown(options);
        return 0;
    });
}
