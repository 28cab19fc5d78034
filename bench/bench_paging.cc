/**
 * @file
 * Experiment C6: paging operations and unmap (Section 4.1.3).
 *
 * Decomposes what moving a page out of memory costs on each model:
 *  - excluding applications (PLB scan-update vs page-group move vs
 *    TLB replica purge);
 *  - unmapping (TLB purge; one cache access per line in the page to
 *    flush it);
 *  - the stale-PLB-entry property: the PLB needs no maintenance on
 *    unmap because the missing translation faults the access.
 */

#include "bench_common.hh"

using namespace sasos;

namespace
{

void
printUnmapDecomposition(const Options &options)
{
    bench::printHeader(
        "C6a: unmap cost decomposition",
        "\"the page needs to be removed from the TLB ... one cache "
        "access is required for each cache line in the page.\" Dirty "
        "page, all lines cached.");

    TextTable table({"system", "flush line accesses", "flush cycles",
                     "tlb/kernel cycles", "plb touched?"});
    for (const auto &model : bench::standardModels(options)) {
        core::System sys(model.config);
        auto &kernel = sys.kernel();
        const os::DomainId d = kernel.createDomain("app");
        const vm::SegmentId seg = kernel.createSegment("s", 2);
        kernel.attach(d, seg, vm::Access::ReadWrite);
        kernel.switchTo(d);
        const vm::VAddr base = sys.state().segments.find(seg)->base();
        // Dirty every line of the page.
        const u32 line = model.config.cache.lineBytes;
        for (u64 off = 0; off < vm::kPageBytes; off += line)
            sys.store(base + off);

        u64 plb_purged_before = 0;
        if (auto *plb = sys.plbSystem())
            plb_purged_before = plb->plb().purgedEntries.value();
        const CycleAccount before = sys.account();
        kernel.unmapPage(vm::pageOf(base));
        const CycleAccount delta = sys.account().since(before);

        std::string plb_touched = "n/a";
        if (auto *plb = sys.plbSystem()) {
            plb_touched = plb->plb().purgedEntries.value() ==
                                  plb_purged_before
                              ? "no (stale entry is safe)"
                              : "yes";
        }
        table.addRow(
            {model.label, TextTable::num(vm::kPageBytes / line),
             TextTable::num(delta.byCategory(CostCategory::Flush).count()),
             TextTable::num(
                 delta.byCategory(CostCategory::KernelWork).count()),
             plb_touched});
    }
    table.print(std::cout);
}

void
printExclusionCost(const Options &options)
{
    bench::printHeader(
        "C6b: excluding applications for a paging operation",
        "\"In a PLB system access rights are simply updated in the "
        "PLB; the number of entries changed depends on the number of "
        "domains that have access ... In a page-group system ... "
        "pages are moved to the paging server's group.\"");

    TextTable table({"sharing domains", "system", "exclusion cycles",
                     "hardware ops"});
    for (u64 sharers : {1, 4, 8}) {
        for (const auto &model : bench::standardModels(options)) {
            core::System sys(model.config);
            auto &kernel = sys.kernel();
            const os::DomainId pager = kernel.createDomain("pager");
            const vm::SegmentId seg = kernel.createSegment("s", 4);
            kernel.attach(pager, seg, vm::Access::ReadWrite);
            std::vector<os::DomainId> apps;
            for (u64 a = 0; a < sharers; ++a) {
                apps.push_back(
                    kernel.createDomain("app" + std::to_string(a)));
                kernel.attach(apps.back(), seg, vm::Access::ReadWrite);
            }
            const vm::VAddr base = sys.state().segments.find(seg)->base();
            // Warm every sharer's protection state.
            for (os::DomainId app : apps) {
                kernel.switchTo(app);
                sys.load(base);
            }
            const CycleAccount before = sys.account();
            kernel.restrictPage(vm::pageOf(base), vm::Access::None,
                                pager);
            const CycleAccount delta = sys.account().since(before);
            std::string ops = "-";
            if (auto *pg = sys.pageGroupSystem()) {
                ops = "page moved to pager group";
                (void)pg;
            } else if (sys.plbSystem()) {
                ops = "plb scan-update";
            } else {
                ops = "purge replicas";
            }
            table.addRow({TextTable::num(sharers), model.label,
                          TextTable::num(
                              delta.totalExcludingIo().count()),
                          ops});
        }
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printUnmapDecomposition(options);
        printExclusionCost(options);
        return 0;
    });
}
