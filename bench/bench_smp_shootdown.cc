/**
 * @file
 * Experiment C10: multiprocessor shootdown cost (Section 4.1.3's
 * "done with a small number of instructions on each processor").
 *
 * Every protection or translation change must reach every CPU's
 * private structures: an inter-processor interrupt per remote CPU
 * plus that CPU's own maintenance. What each CPU then *does* differs
 * by model -- a PLB scan, a page-group TLB entry move, or an ASID
 * replica purge -- so the per-CPU work replays the whole
 * single-processor comparison at every shootdown.
 */

#include "bench_common.hh"

#include "core/smp.hh"
#include "workload/dvm.hh"

using namespace sasos;

namespace
{

/** Cycles for one kernel operation on an N-CPU machine with every
 * CPU's structures warm for the page. */
u64
measureOp(const core::SystemConfig &config, unsigned cpus,
          const std::function<void(core::SmpSystem &, vm::Vpn)> &op)
{
    core::SmpSystem sys(config, cpus);
    std::vector<os::DomainId> nodes;
    for (unsigned n = 0; n < cpus; ++n)
        nodes.push_back(
            sys.kernel().createDomain("n" + std::to_string(n)));
    const vm::SegmentId seg = sys.kernel().createSegment("s", 4);
    for (os::DomainId node : nodes)
        sys.kernel().attach(node, seg, vm::Access::ReadWrite);
    const vm::VAddr base = sys.state().segments.find(seg)->base();
    for (unsigned cpu = 0; cpu < cpus; ++cpu) {
        sys.runOn(cpu, nodes[cpu]);
        sys.store(base);
    }
    sys.runOn(0, nodes[0]);
    const u64 before = sys.cycles().count();
    op(sys, vm::pageOf(base));
    return sys.cycles().count() - before;
}

void
printShootdownTable(const Options &options)
{
    bench::printHeader(
        "C10: shootdown cost vs processor count",
        "A page-wide restriction (the paging exclusion) issued from "
        "CPU 0 with every CPU warm. IPI cost per remote CPU plus each "
        "CPU's own structure maintenance.");

    TextTable table({"cpus", "plb", "page-group", "conventional", "pkey"});
    for (unsigned cpus : {1u, 2u, 4u, 8u}) {
        std::vector<std::string> row{TextTable::num(u64{cpus})};
        for (const auto &model : bench::standardModels(options)) {
            const u64 cycles = measureOp(
                model.config, cpus,
                [](core::SmpSystem &sys, vm::Vpn vpn) {
                    sys.kernel().restrictPage(vpn, vm::Access::None);
                });
            row.push_back(TextTable::num(cycles));
        }
        table.addRow(row);
    }
    table.print(std::cout);
}

void
printUnmapShootdownTable(const Options &options)
{
    bench::printHeader(
        "C10b: unmap (TLB + cache shootdown) vs processor count",
        "Unmapping a dirty page every CPU has cached: TLB purge and a "
        "full page flush on each processor.");

    TextTable table({"cpus", "plb", "page-group", "conventional", "pkey"});
    for (unsigned cpus : {1u, 2u, 4u, 8u}) {
        std::vector<std::string> row{TextTable::num(u64{cpus})};
        for (const auto &model : bench::standardModels(options)) {
            const u64 cycles = measureOp(
                model.config, cpus,
                [](core::SmpSystem &sys, vm::Vpn vpn) {
                    sys.kernel().unmapPage(vpn);
                });
            row.push_back(TextTable::num(cycles));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "shape check: cost grows ~linearly with processors on "
                 "every model (IPIs + per-CPU flush dominate); the "
                 "per-CPU protection work keeps the single-processor "
                 "ordering.\n";
}

void
printSmpDvmTable(const Options &options)
{
    bench::printHeader(
        "C10c: distributed VM with one node per processor",
        "The DSM workload in its natural deployment: every coherence "
        "rights change is a cross-CPU shootdown. Protocol cycles "
        "exclude network time.");

    TextTable table({"nodes=cpus", "system", "protocol cycles",
                     "ipis sent", "vs uniprocessor run"});
    for (u64 nodes : {2, 4, 8}) {
        wl::DvmConfig dvm;
        dvm.nodes = nodes;
        dvm.quanta = 20 * nodes;
        dvm.refsPerQuantum = 40;
        for (const auto &model : bench::standardModels(options)) {
            // Uniprocessor baseline (all nodes timeshare one CPU).
            core::System uni(model.config);
            const u64 uni_cycles = wl::DvmWorkload(dvm)
                                       .run(uni)
                                       .cycles.totalExcludingIo()
                                       .count();
            // One CPU per node.
            core::SmpSystem smp(model.config,
                                static_cast<unsigned>(nodes));
            const wl::DvmResult result = wl::DvmWorkload(dvm).run(smp);
            const u64 smp_cycles =
                result.cycles.totalExcludingIo().count();
            table.addRow(
                {TextTable::num(nodes), model.label,
                 TextTable::num(smp_cycles),
                 TextTable::num(smp.ipisSent.value()),
                 bench::normalized(static_cast<double>(smp_cycles),
                                   static_cast<double>(uni_cycles))});
        }
    }
    table.print(std::cout);
    std::cout << "shape check: shootdown IPIs grow with node count; "
                 "the SMP run costs more protocol cycles than "
                 "timesharing one CPU by exactly the shootdown tax.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printShootdownTable(options);
        printUnmapShootdownTable(options);
        printSmpDvmTable(options);
        return 0;
    });
}
