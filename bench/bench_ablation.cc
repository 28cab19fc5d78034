/**
 * @file
 * Ablations: robustness of the headline comparisons to the knobs the
 * paper leaves open.
 *
 *  - cost constants: the C4b static-vs-dynamic sharing crossover is
 *    re-run under cheap and expensive kernel traps -- the *ordering*
 *    must survive, only the crossover point moves;
 *  - page-group cache size (Wilkes & Sears) vs the original four
 *    registers: miss pressure vs active segment count;
 *  - eager vs lazy page-group reload on switches;
 *  - PLB capacity: when replication exceeds capacity, miss rate
 *    takes off (the size a PLB must be to hold D sharers' entries).
 */

#include "bench_common.hh"

#include "workload/rpc.hh"
#include "workload/sharing.hh"

using namespace sasos;

namespace
{

void
printTrapSensitivity(const Options &options)
{
    bench::printHeader(
        "Ablation A1: C4b crossover vs kernel-trap cost",
        "The regime winner (static -> page-group, dynamic -> plb) "
        "must hold across trap costs; only the crossover moves.");

    TextTable table({"kernelTrap", "regime", "plb cycles/ref",
                     "page-group cycles/ref", "winner"});
    for (u64 trap : {50, 200, 800}) {
        for (u64 period : {u64{0}, u64{2}}) {
            wl::SharingConfig sharing;
            sharing.domains = 8;
            sharing.sharedSegments = 2;
            sharing.sharedPages = 16;
            sharing.privatePages = 4;
            sharing.quanta = 120;
            sharing.refsPerQuantum = 50;
            sharing.sharedFraction = 0.9;
            sharing.protChangePeriod = period;

            double cycles[2] = {0, 0};
            int index = 0;
            for (core::ModelKind kind :
                 {core::ModelKind::Plb, core::ModelKind::PageGroup}) {
                core::SystemConfig config =
                    core::SystemConfig::forModel(kind);
                config.costs.set("kernelTrap", trap);
                if (kind == core::ModelKind::Plb) {
                    config.superPagePlb = false;
                    config.plb.sizeShifts = {vm::kPageShift};
                    config.plb.ways = config.tlb.ways;
                }
                core::System sys(config);
                cycles[index++] =
                    wl::SharingWorkload(sharing).run(sys).cyclesPerRef();
            }
            table.addRow({TextTable::num(trap),
                          period == 0 ? "static" : "dynamic",
                          TextTable::num(cycles[0], 2),
                          TextTable::num(cycles[1], 2),
                          cycles[0] < cycles[1] ? "plb" : "page-group"});
        }
    }
    table.print(std::cout);
    (void)options;
}

void
printPgCacheSizeSweep(const Options &options)
{
    bench::printHeader(
        "Ablation A2: page-group cache size (Wilkes & Sears) vs the "
        "four PID registers",
        "A domain cycling over N attached segments; refill faults per "
        "1000 references.");

    TextTable table({"active segments", "4 regs (random)", "8 (lru)",
                     "16 (lru)", "64 (lru)"});
    for (u64 segments : {4, 8, 16, 32}) {
        std::vector<std::string> row{TextTable::num(segments)};
        struct Variant
        {
            std::size_t entries;
            hw::PolicyKind policy;
        };
        for (const Variant &variant :
             {Variant{4, hw::PolicyKind::Random},
              Variant{8, hw::PolicyKind::Lru},
              Variant{16, hw::PolicyKind::Lru},
              Variant{64, hw::PolicyKind::Lru}}) {
            core::SystemConfig config =
                core::SystemConfig::pageGroupSystem();
            config.pgCache.entries = variant.entries;
            config.pgCache.policy = variant.policy;
            core::System sys(config);
            auto &kernel = sys.kernel();
            const os::DomainId d = kernel.createDomain("app");
            std::vector<vm::VAddr> bases;
            for (u64 s = 0; s < segments; ++s) {
                const vm::SegmentId seg = kernel.createSegment(
                    "s" + std::to_string(s), 4);
                kernel.attach(d, seg, vm::Access::ReadWrite);
                bases.push_back(sys.state().segments.find(seg)->base());
            }
            kernel.switchTo(d);
            Rng rng(31);
            const u64 refs = 2000;
            for (u64 r = 0; r < refs; ++r)
                sys.load(bases[rng.nextBelow(segments)] +
                         rng.nextBelow(4 * vm::kPageBytes));
            const u64 refills =
                sys.pageGroupSystem()->pgCacheRefills.value();
            row.push_back(
                TextTable::num(1000.0 * refills / refs, 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    (void)options;
}

void
printEagerVsLazy(const Options &options)
{
    bench::printHeader(
        "Ablation A3: eager vs lazy page-group reload (Section 4.1.4)",
        "\"The page-group cache can be reloaded lazily via protection "
        "faults, but for performance reasons it may be advantageous "
        "to explicitly reload it.\" RPC calls with growing numbers of "
        "attached segments per side.");

    TextTable table({"segments/side", "lazy cycles/call",
                     "eager cycles/call", "eager wins?"});
    for (u64 extra : {0, 2, 8}) {
        double per_call[2] = {0, 0};
        int index = 0;
        for (bool eager : {false, true}) {
            core::SystemConfig config =
                core::SystemConfig::pageGroupSystem();
            config.eagerPgReload = eager;
            core::System sys(config);
            auto &kernel = sys.kernel();
            // Pre-attach extra segments to both RPC parties by
            // creating them inside the workload's domains is not
            // possible from here, so emulate: run the RPC and add
            // extra attached-but-idle segments to every domain the
            // workload creates afterward would be too late. Instead
            // measure the switch+refill directly.
            const os::DomainId a = kernel.createDomain("a");
            const os::DomainId b = kernel.createDomain("b");
            std::vector<vm::VAddr> a_bases, b_bases;
            for (u64 s = 0; s < extra + 1; ++s) {
                const vm::SegmentId sa = kernel.createSegment(
                    "a" + std::to_string(s), 2);
                const vm::SegmentId sb = kernel.createSegment(
                    "b" + std::to_string(s), 2);
                kernel.attach(a, sa, vm::Access::ReadWrite);
                kernel.attach(b, sb, vm::Access::ReadWrite);
                a_bases.push_back(sys.state().segments.find(sa)->base());
                b_bases.push_back(sys.state().segments.find(sb)->base());
            }
            // Warm.
            kernel.switchTo(a);
            for (const vm::VAddr base : a_bases)
                sys.load(base);
            kernel.switchTo(b);
            for (const vm::VAddr base : b_bases)
                sys.load(base);
            const u64 before = sys.cycles().count();
            const u64 calls = 100;
            for (u64 c = 0; c < calls; ++c) {
                kernel.switchTo(a);
                for (const vm::VAddr base : a_bases)
                    sys.load(base);
                kernel.switchTo(b);
                for (const vm::VAddr base : b_bases)
                    sys.load(base);
            }
            per_call[index++] =
                static_cast<double>(sys.cycles().count() - before) /
                calls;
        }
        table.addRow({TextTable::num(extra + 1),
                      TextTable::num(per_call[0], 1),
                      TextTable::num(per_call[1], 1),
                      per_call[1] < per_call[0] ? "yes" : "no"});
    }
    table.print(std::cout);
    (void)options;
}

void
printPlbCapacitySweep(const Options &options)
{
    bench::printHeader(
        "Ablation A4: PLB capacity under replication",
        "8 domains sharing hot pages; page-grain entries. The PLB "
        "needs capacity for (domains x pages); below that, misses "
        "climb.");

    TextTable table({"plb entries", "occupancy", "plb miss rate",
                     "cycles/ref"});
    for (u64 entries : {32, 64, 128, 256, 512}) {
        wl::SharingConfig sharing;
        sharing.domains = 8;
        sharing.sharedSegments = 2;
        sharing.sharedPages = 16;
        sharing.privatePages = 4;
        sharing.quanta = 80;
        sharing.refsPerQuantum = 50;
        sharing.sharedFraction = 0.9;

        core::SystemConfig config = core::SystemConfig::plbSystem();
        config.superPagePlb = false;
        config.plb.sizeShifts = {vm::kPageShift};
        config.plb.ways = entries;
        core::System sys(config);
        const wl::SharingResult result =
            wl::SharingWorkload(sharing).run(sys);
        table.addRow({TextTable::num(entries),
                      TextTable::num(result.occupancyEntries),
                      TextTable::num(result.missRate() * 100.0, 2) + "%",
                      TextTable::num(result.cyclesPerRef(), 2)});
    }
    table.print(std::cout);
    (void)options;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printTrapSensitivity(options);
        printPgCacheSizeSweep(options);
        printEagerVsLazy(options);
        printPlbCapacitySweep(options);
        return 0;
    });
}
