/**
 * @file
 * Distributed shared memory via page protection (Li-style ownership
 * protocol), the paper's "Distributed VM" application. Each node is
 * a protection domain; get-readable/get-writable/invalidate episodes
 * are counted and costed on the chosen architecture.
 *
 * Run: ./dsm_node [model=plb|pg|conv|pkey] [nodes=N] [sharedPages=N] ...
 */

#include <cstdio>
#include <iostream>

#include "sasos.hh"
#include "workload/dvm.hh"

using namespace sasos;

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());

    wl::DvmConfig dvm;
    dvm.nodes = options.getU64("nodes", dvm.nodes);
    dvm.sharedPages = options.getU64("sharedPages", dvm.sharedPages);
    dvm.quanta = options.getU64("quanta", dvm.quanta);
    dvm.storeFraction = options.getDouble("storeFraction",
                                          dvm.storeFraction);
    dvm.seed = options.getU64("seed", dvm.seed);

    std::printf("distributed VM on the %s model: %lu nodes sharing %lu "
                "pages\n",
                toString(config.model),
                static_cast<unsigned long>(dvm.nodes),
                static_cast<unsigned long>(dvm.sharedPages));

    core::System sys(config);
    wl::DvmWorkload workload(dvm);
    const wl::DvmResult result = workload.run(sys);

    std::printf("\nreferences:        %lu\n",
                static_cast<unsigned long>(result.references));
    std::printf("get-readable:      %lu\n",
                static_cast<unsigned long>(result.readFaults));
    std::printf("get-writable:      %lu\n",
                static_cast<unsigned long>(result.writeFaults));
    std::printf("invalidations:     %lu\n",
                static_cast<unsigned long>(result.invalidations));
    std::printf("cycles (total):    %lu\n",
                static_cast<unsigned long>(result.cycles.total().count()));
    std::printf("cycles (excl. network): %lu\n",
                static_cast<unsigned long>(
                    result.cycles.totalExcludingIo().count()));

    std::printf("\ncycle breakdown:\n");
    result.cycles.dump(std::cout, "  ");
    return 0;
}
