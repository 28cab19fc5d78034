/**
 * @file
 * simulate: the general simulation driver.
 *
 * Runs any of the paper's application workloads on any protection
 * architecture with any configuration, and prints the full statistics
 * tree and cycle breakdown -- the one-binary entry point for poking
 * at the system.
 *
 * Run: ./simulate workload=<name> [model=plb|pg|conv|pkey] [key=value ...]
 *
 * Workloads: rpc, churn, sharing, gc, dvm, txvm, checkpoint, comppage,
 * stream (a raw reference stream through System::run;
 * stream=seq|uniform|zipf|ws, refs=, pages=).
 * Common keys: model=, cacheKB=, lineBytes=, cacheOrg=, tlbEntries=,
 * plbEntries=, pgEntries=, eagerPg=, purgeOnSwitch=, flushOnSwitch=,
 * superPage=, l2=, frames=, seed=, cost.<name>=<cycles>.
 * Observability: trace=1 [trace_out= trace_buf=] records a Perfetto
 * trace of the run; stats_out=FILE.json|.csv exports the stats tree.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "obs/tracer.hh"
#include "sasos.hh"
#include "workload/address_stream.hh"
#include "workload/attach_churn.hh"
#include "workload/checkpoint.hh"
#include "workload/comppage.hh"
#include "workload/dvm.hh"
#include "workload/gc.hh"
#include "workload/rpc.hh"
#include "workload/sharing.hh"
#include "workload/txvm.hh"

using namespace sasos;

namespace
{

int
runWorkload(const std::string &name, core::System &sys,
            const Options &options)
{
    if (name == "rpc") {
        wl::RpcConfig config;
        config.calls = options.getU64("calls", config.calls);
        config.argBytes = options.getU64("argBytes", config.argBytes);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::RpcWorkload(config).run(sys);
        std::printf("rpc: %lu calls, %.1f cycles/call\n",
                    static_cast<unsigned long>(result.calls),
                    result.cyclesPerCall());
        return 0;
    }
    if (name == "churn") {
        wl::AttachChurnConfig config;
        config.episodes = options.getU64("episodes", config.episodes);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::AttachChurnWorkload(config).run(sys);
        std::printf("churn: %lu episodes, %.1f cycles/episode\n",
                    static_cast<unsigned long>(result.episodes),
                    result.cyclesPerEpisode());
        return 0;
    }
    if (name == "sharing") {
        wl::SharingConfig config;
        config.domains = options.getU64("domains", config.domains);
        config.quanta = options.getU64("quanta", config.quanta);
        config.protChangePeriod =
            options.getU64("protChangePeriod", config.protChangePeriod);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::SharingWorkload(config).run(sys);
        std::printf("sharing: %lu refs, %.2f cycles/ref, miss rate "
                    "%.2f%%, %lu protection entries live\n",
                    static_cast<unsigned long>(result.references),
                    result.cyclesPerRef(), result.missRate() * 100.0,
                    static_cast<unsigned long>(result.occupancyEntries));
        return 0;
    }
    if (name == "gc") {
        wl::GcConfig config;
        config.collections = options.getU64("collections",
                                            config.collections);
        config.spacePages = options.getU64("spacePages",
                                           config.spacePages);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::GcWorkload(config).run(sys);
        std::printf("gc: %lu flips, %lu scan faults, %lu flip cycles\n",
                    static_cast<unsigned long>(result.flips),
                    static_cast<unsigned long>(result.scanFaults),
                    static_cast<unsigned long>(result.flipCycles));
        return 0;
    }
    if (name == "dvm") {
        wl::DvmConfig config;
        config.nodes = options.getU64("nodes", config.nodes);
        config.quanta = options.getU64("quanta", config.quanta);
        config.storeFraction =
            options.getDouble("storeFraction", config.storeFraction);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::DvmWorkload(config).run(sys);
        std::printf("dvm: %lu refs, %lu get-readable, %lu get-writable, "
                    "%lu invalidations\n",
                    static_cast<unsigned long>(result.references),
                    static_cast<unsigned long>(result.readFaults),
                    static_cast<unsigned long>(result.writeFaults),
                    static_cast<unsigned long>(result.invalidations));
        return 0;
    }
    if (name == "txvm") {
        wl::TxvmConfig config;
        config.commits = options.getU64("commits", config.commits);
        config.transactions =
            options.getU64("transactions", config.transactions);
        config.pagesPerTx = options.getU64("pagesPerTx",
                                           config.pagesPerTx);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::TxvmWorkload(config).run(sys);
        std::printf("txvm: %lu commits, %lu aborts, %lu read locks, "
                    "%lu write locks\n",
                    static_cast<unsigned long>(result.commits),
                    static_cast<unsigned long>(result.aborts),
                    static_cast<unsigned long>(result.lockReadGrants),
                    static_cast<unsigned long>(result.lockWriteGrants));
        return 0;
    }
    if (name == "checkpoint") {
        wl::CheckpointConfig config;
        config.checkpoints = options.getU64("checkpoints",
                                            config.checkpoints);
        config.dataPages = options.getU64("dataPages", config.dataPages);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::CheckpointWorkload(config).run(sys);
        std::printf("checkpoint: %lu checkpoints, %lu cow faults, "
                    "%lu swept pages\n",
                    static_cast<unsigned long>(result.checkpoints),
                    static_cast<unsigned long>(result.copyOnWriteFaults),
                    static_cast<unsigned long>(result.sweptPages));
        return 0;
    }
    if (name == "comppage") {
        wl::CompPageConfig config;
        config.dataPages = options.getU64("dataPages", config.dataPages);
        config.frames = options.getU64("pagerFrames", config.frames);
        config.references =
            options.getU64("references", config.references);
        config.seed = options.getU64("wseed", config.seed);
        const auto result = wl::CompPageWorkload(config).run(sys);
        std::printf("comppage: %lu refs, %lu page-ins, %lu page-outs, "
                    "fault rate %.2f%%\n",
                    static_cast<unsigned long>(result.references),
                    static_cast<unsigned long>(result.pageIns),
                    static_cast<unsigned long>(result.pageOuts),
                    result.faultRate() * 100.0);
        return 0;
    }
    if (name == "stream") {
        // A raw reference stream through System::run, with host-side
        // throughput (refs/sec) reported.
        const u64 pages = options.getU64("pages", 256);
        const u64 refs = options.getU64("refs", 1'000'000);
        const u64 seed = options.getU64("wseed", 1);
        const std::string kind = options.getString("stream", "zipf");

        const os::DomainId app = sys.kernel().createDomain("app");
        const vm::SegmentId seg = sys.kernel().createSegment("heap",
                                                             pages);
        sys.kernel().attach(app, seg, vm::Access::ReadWrite);
        sys.kernel().switchTo(app);
        const vm::VAddr base = sys.state().segments.find(seg)->base();

        std::unique_ptr<wl::AddressStream> stream;
        if (kind == "seq") {
            stream = std::make_unique<wl::SequentialStream>(
                base, pages * vm::kPageBytes, 64);
        } else if (kind == "uniform") {
            stream = std::make_unique<wl::UniformStream>(
                base, pages * vm::kPageBytes);
        } else if (kind == "ws") {
            stream = std::make_unique<wl::WorkingSetStream>(
                base, pages, pages / 8 ? pages / 8 : 1, 4096);
        } else if (kind == "zipf") {
            stream = std::make_unique<wl::ZipfPageStream>(base, pages,
                                                          0.8, seed);
        } else {
            std::fprintf(stderr, "unknown stream '%s'\n", kind.c_str());
            return 2;
        }

        Rng rng(seed);
        const auto start = std::chrono::steady_clock::now();
        const core::RunResult result = sys.run(*stream, refs, rng);
        const auto stop = std::chrono::steady_clock::now();
        const double wall =
            std::chrono::duration<double>(stop - start).count();
        std::printf("stream(%s): %lu refs, %lu failed, %.2f sim "
                    "cycles/ref, %.2f Mrefs/s host\n",
                    kind.c_str(), static_cast<unsigned long>(refs),
                    static_cast<unsigned long>(result.failed),
                    static_cast<double>(sys.cycles().count()) /
                        static_cast<double>(refs ? refs : 1),
                    wall > 0.0 ? static_cast<double>(refs) / wall / 1e6
                               : 0.0);
        return 0;
    }
    std::fprintf(stderr,
                 "unknown workload '%s'; choose one of rpc, churn, "
                 "sharing, gc, dvm, txvm, checkpoint, comppage, stream\n",
                 name.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const std::string workload = options.getString("workload", "rpc");

    core::SystemConfig config = core::SystemConfig::fromOptions(
        options, core::SystemConfig::plbSystem());
    if (workload == "comppage") {
        // The paging workload needs frame pressure.
        config.frames = options.getU64("pagerFrames", 128);
    }

    std::printf("simulate: workload=%s model=%s\n", workload.c_str(),
                toString(config.model));

    core::System sys(config);
    const std::string stats_out = options.getString("stats_out", "");
    int status = 0;
    {
        obs::ScopedTrace trace(options);
        status = runWorkload(workload, sys, options);
    }
    if (status != 0)
        return status;

    for (const std::string &key : options.unusedKeys())
        warn("option '", key, "' was never used");

    if (!stats_out.empty()) {
        std::ofstream os(stats_out);
        if (!os)
            SASOS_FATAL("cannot open stats_out file '", stats_out, "'");
        if (stats_out.size() >= 4 &&
            stats_out.compare(stats_out.size() - 4, 4, ".csv") == 0) {
            sys.dumpStatsCsv(os);
        } else {
            sys.dumpStatsJson(os);
        }
        inform("wrote stats to ", stats_out);
    }

    std::printf("\n--- statistics ---\n");
    sys.dumpStats(std::cout);
    return 0;
}
