/**
 * @file
 * Concurrent copying garbage collection (Appel-Ellis-Li) driven by
 * protection faults, on a chosen protection architecture. Shows the
 * Table 1 "Concurrent Garbage Collection" rows live: the flip cost
 * and the per-page scan faults.
 *
 * Run: ./concurrent_gc [model=plb|pg|conv|pkey] [collections=N] ...
 */

#include <cstdio>
#include <iostream>

#include "sasos.hh"
#include "workload/gc.hh"

using namespace sasos;

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());

    wl::GcConfig gc;
    gc.collections = options.getU64("collections", gc.collections);
    gc.spacePages = options.getU64("spacePages", gc.spacePages);
    gc.allocsPerCollection =
        options.getU64("allocs", gc.allocsPerCollection);
    gc.seed = options.getU64("seed", gc.seed);

    std::printf("concurrent GC on the %s model: %lu collections over "
                "%lu-page semi-spaces\n",
                toString(config.model),
                static_cast<unsigned long>(gc.collections),
                static_cast<unsigned long>(gc.spacePages));

    core::System sys(config);
    wl::GcWorkload workload(gc);
    const wl::GcResult result = workload.run(sys);

    std::printf("\nflips: %lu\n", static_cast<unsigned long>(result.flips));
    std::printf("scan faults (pages collected on demand): %lu\n",
                static_cast<unsigned long>(result.scanFaults));
    std::printf("mutator references: %lu\n",
                static_cast<unsigned long>(result.mutatorRefs));
    std::printf("total cycles: %lu\n",
                static_cast<unsigned long>(result.cycles.total().count()));
    std::printf("flip cycles (Table 1 'Flip Spaces'): %lu (%.0f/flip)\n",
                static_cast<unsigned long>(result.flipCycles),
                result.flips ? static_cast<double>(result.flipCycles) /
                                   result.flips
                             : 0.0);

    std::printf("\ncycle breakdown:\n");
    sys.account().dump(std::cout, "  ");
    return 0;
}
