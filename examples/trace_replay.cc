/**
 * @file
 * Record a reference trace once, then replay it against all three
 * protection architectures -- the methodology the benches use to keep
 * comparisons reference-for-reference identical, exposed as a
 * standalone tool.
 *
 * Run: ./trace_replay [refs=N] [seed=N] [keep=0|1]
 * (keep=1 leaves the trace file on disk and prints its first records
 * in text form.)
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include <unistd.h>

#include "sasos.hh"
#include "trace/trace.hh"

using namespace sasos;

namespace
{

/** Deterministically synthesize a two-domain workload trace. */
void
recordTrace(const std::string &path, u64 refs, u64 seed)
{
    trace::TraceWriter writer(path);
    Rng rng(seed);
    // Addresses land in the first segment a fresh system creates
    // (the allocator starts at page 0x100).
    const u64 base = u64{0x100} << vm::kPageShift;
    u16 current = 1;
    writer.append(trace::TraceOp::Switch, current, vm::VAddr(0));
    for (u64 r = 0; r < refs; ++r) {
        if (rng.bernoulli(0.02)) { // occasional RPC-style switch
            current = current == 1 ? 2 : 1;
            writer.append(trace::TraceOp::Switch, current, vm::VAddr(0));
        }
        const u64 page = rng.nextBelow(16);
        const u64 offset = rng.nextBelow(vm::kPageBytes / 8) * 8;
        const vm::VAddr va(base + page * vm::kPageBytes + offset);
        const trace::TraceOp op = rng.bernoulli(0.3)
                                      ? trace::TraceOp::Store
                                      : trace::TraceOp::Load;
        writer.append(op, current, va);
    }
    std::printf("recorded %lu trace records to %s\n",
                static_cast<unsigned long>(writer.count()), path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.parseArgs(argc, argv);
    const u64 refs = options.getU64("refs", 5000);
    const u64 seed = options.getU64("seed", 42);
    const bool keep = options.getBool("keep", false);

    // The process id keeps concurrent runs off each other's file.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("sasos_example-" + std::to_string(::getpid()) + ".trc"))
            .string();
    recordTrace(path, refs, seed);

    if (keep) {
        std::printf("\nfirst records (text form):\n");
        trace::TraceReader reader(path);
        trace::TraceRecord record;
        for (int i = 0; i < 8 && reader.next(record); ++i)
            std::printf("  %s\n", trace::toText(record).c_str());
    }

    TextTable table({"machine", "simulated cycles", "failed refs"});
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional}) {
        core::System sys(core::SystemConfig::forModel(kind));
        auto &kernel = sys.kernel();
        const os::DomainId a = kernel.createDomain("a");
        const os::DomainId b = kernel.createDomain("b");
        const vm::SegmentId seg = kernel.createSegment("data", 16);
        kernel.attach(a, seg, vm::Access::ReadWrite);
        kernel.attach(b, seg, vm::Access::ReadWrite);

        trace::TraceReader reader(path);
        const trace::ReplayResult result =
            trace::replay(sys, reader, {{1, a}, {2, b}});
        table.addRow({toString(kind),
                      TextTable::num(sys.cycles().count()),
                      TextTable::num(result.failedReferences)});
    }
    std::printf("\nsame reference stream on each machine:\n");
    table.print(std::cout);

    if (!keep)
        std::remove(path.c_str());
    else
        std::printf("\ntrace kept at %s\n", path.c_str());
    return 0;
}
