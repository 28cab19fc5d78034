/**
 * @file
 * Experiment C9: virtually indexed caches without flushing
 * (Section 2.2).
 *
 * "Thus, by alleviating these problems [synonyms and homonyms], a
 * single address space system removes several impediments to the use
 * of a virtually indexed cache ... the virtually indexed cache can be
 * supported without flushing on process switches and without the
 * need for additional address space identifier bits."
 *
 * Compared machines:
 *  - plb / SASOS: VIVT cache, nothing flushed or tagged on a switch;
 *  - multiple-AS + VIVT: the cache must be flushed (and the untagged
 *    TLB purged) on every process switch -- the i860's requirement;
 *  - multiple-AS + VIPT: no flushes, but every access needs the
 *    physically tagged compare (and ASID-replicated TLB entries).
 *
 * Also quantifies the cross-domain cache reuse a single address space
 * enables: one domain hits on lines another domain brought in.
 */

#include "bench_common.hh"

#include "workload/rpc.hh"
#include "workload/sharing.hh"

using namespace sasos;

namespace
{

std::vector<bench::ModelUnderTest>
vcacheModels(const Options &options)
{
    return {
        {"sasos-vivt (plb)", core::SystemConfig::fromOptions(
                                 options, core::SystemConfig::plbSystem())},
        {"multi-as vivt+flush",
         core::SystemConfig::fromOptions(
             options, core::SystemConfig::flushingVcacheSystem())},
        {"multi-as vipt+asid",
         core::SystemConfig::fromOptions(
             options, core::SystemConfig::conventionalSystem())},
    };
}

void
printSwitchCostTable(const Options &options)
{
    bench::printHeader(
        "C9a: process-switch cost of a virtually indexed cache",
        "RPC ping-pong (two switches per call). The multiple address "
        "space machine discards its whole VIVT cache at each switch; "
        "the single address space machine keeps it.");

    wl::RpcConfig rpc;
    rpc.calls = options.getU64("calls", 400);

    TextTable table({"machine", "cycles/call", "flush cycles/call",
                     "memory-path cycles/call", "vs sasos"});
    double baseline = 0.0;
    for (const auto &model : vcacheModels(options)) {
        core::System sys(model.config);
        const wl::RpcResult result = wl::RpcWorkload(rpc).run(sys);
        const double per_call = result.cyclesPerCall();
        if (baseline == 0.0)
            baseline = per_call;
        table.addRow(
            {model.label, TextTable::num(per_call, 1),
             TextTable::num(
                 static_cast<double>(
                     result.cycles.byCategory(CostCategory::Flush)
                         .count()) /
                     result.calls,
                 1),
             TextTable::num(
                 static_cast<double>(
                     result.cycles.byCategory(CostCategory::Reference)
                         .count()) /
                     result.calls,
                 1),
             bench::normalized(per_call, baseline)});
    }
    table.print(std::cout);
}

void
printCrossDomainReuse(const Options &options)
{
    bench::printHeader(
        "C9b: cross-domain cache reuse of shared data",
        "Producer writes a shared segment; consumer reads it through "
        "the same virtual addresses. In the single address space the "
        "consumer hits the producer's cached lines.");

    TextTable table({"machine", "consumer L1 misses", "consumer cycles"});
    for (const auto &model : vcacheModels(options)) {
        core::System sys(model.config);
        auto &kernel = sys.kernel();
        const os::DomainId producer = kernel.createDomain("producer");
        const os::DomainId consumer = kernel.createDomain("consumer");
        const vm::SegmentId seg = kernel.createSegment("shared", 8);
        kernel.attach(producer, seg, vm::Access::ReadWrite);
        kernel.attach(consumer, seg, vm::Access::Read);
        const vm::VAddr base = sys.state().segments.find(seg)->base();

        kernel.switchTo(producer);
        for (u64 off = 0; off < 8 * vm::kPageBytes; off += 32)
            sys.store(base + off);

        kernel.switchTo(consumer);
        hw::DataCache *l1 = nullptr;
        if (auto *plb = sys.plbSystem())
            l1 = &plb->cache();
        else if (auto *conv = sys.conventionalSystem())
            l1 = &conv->cache();
        const u64 misses_before = l1->misses.value();
        const u64 cycles_before = sys.cycles().count();
        for (u64 off = 0; off < 8 * vm::kPageBytes; off += 32)
            sys.load(base + off);
        table.addRow({model.label,
                      TextTable::num(l1->misses.value() - misses_before),
                      TextTable::num(sys.cycles().count() -
                                     cycles_before)});
    }
    table.print(std::cout);
    std::cout << "shape check: sasos-vivt consumer misses ~0 (lines "
                 "survive the switch and need no ASID); the flushing "
                 "machine re-misses everything.\n";
}

void
printSharingQuantum(const Options &options)
{
    bench::printHeader(
        "C9c: switch-intensive multiprogramming",
        "8 domains, short quanta, mixed shared/private working sets.");

    wl::SharingConfig sharing;
    sharing.domains = 8;
    sharing.quanta = options.getU64("quanta", 160);
    sharing.refsPerQuantum = options.getU64("refsPerQuantum", 50);

    TextTable table({"machine", "cycles/ref", "flush cycles total",
                     "vs sasos"});
    double baseline = 0.0;
    for (const auto &model : vcacheModels(options)) {
        core::System sys(model.config);
        const wl::SharingResult result =
            wl::SharingWorkload(sharing).run(sys);
        const double per_ref = result.cyclesPerRef();
        if (baseline == 0.0)
            baseline = per_ref;
        table.addRow(
            {model.label, TextTable::num(per_ref, 2),
             TextTable::num(
                 result.cycles.byCategory(CostCategory::Flush).count()),
             bench::normalized(per_ref, baseline)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printSwitchCostTable(options);
        printCrossDomainReuse(options);
        printSharingQuantum(options);
        return 0;
    });
}
