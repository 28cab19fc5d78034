/**
 * @file
 * Experiment F2: the protection-check path of Figure 2 and the
 * implementation concern of Section 4.2.
 *
 * The page-group check is two dependent lookups (TLB -> page-group
 * cache); the PLB is a single lookup probed in parallel with the
 * data cache. This bench makes that concrete two ways:
 *
 *  1. an SRAM latency model (logarithmic in entry count, linear in
 *     comparator width) showing the sequential page-group check
 *     stretching the memory-reference critical path as the
 *     page-group cache grows, while the PLB stays one access deep;
 *  2. a functional check that both paths grant exactly the rights
 *     the kernel intends (the Figure 2 semantics: AID match, group 0,
 *     write-disable bit).
 */

#include "bench_common.hh"

#include <cmath>

using namespace sasos;

namespace
{

/**
 * A simple SRAM access-time model, after CACTI-style scaling: decode
 * grows with log2(entries), the match with comparator width. The
 * absolute unit is arbitrary ("RC units"); only the relative shape
 * matters for the Section 4.2 argument.
 */
double
lookupTime(u64 entries, u64 compare_bits)
{
    return 1.0 + 0.35 * std::log2(static_cast<double>(entries)) +
           0.02 * static_cast<double>(compare_bits);
}

void
printCriticalPath()
{
    bench::printHeader(
        "Figure 2 / Section 4.2: protection-check critical path",
        "\"Protection checking in the page-group implementation "
        "requires two steps performed in sequence ... The "
        "sequentiality may result in higher cycle times, especially "
        "if the page-group cache is large.\" The PLB needs one wider "
        "lookup (VPN + PD-ID).");

    hw::sizing::SizingParams params;
    const u64 plb_compare = 52 + 16; // VPN tag + PD-ID
    const u64 tlb_compare = 52;      // VPN tag
    const u64 pid_compare = 16;      // AID vs PID registers

    TextTable table({"pg-cache entries", "page-group path (TLB then "
                     "PID match)", "plb path (single lookup)",
                     "page-group / plb"});
    const double plb_time = lookupTime(128, plb_compare);
    for (u64 entries : {4, 8, 16, 32, 64, 128, 256}) {
        const double pg_time =
            lookupTime(128, tlb_compare) +
            lookupTime(entries, pid_compare);
        table.addRow({TextTable::num(entries),
                      TextTable::num(pg_time, 2),
                      TextTable::num(plb_time, 2),
                      TextTable::ratio(pg_time / plb_time, 2)});
    }
    table.print(std::cout);
    (void)params;
}

void
printCheckSemantics()
{
    bench::printHeader(
        "Figure 2 semantics: AID match, group 0, write-disable",
        "Functional check of the PA-RISC protection logic as modeled.");

    core::System sys(core::SystemConfig::pageGroupSystem());
    auto &kernel = sys.kernel();
    const os::DomainId writer = kernel.createDomain("writer");
    const os::DomainId reader = kernel.createDomain("reader");
    const os::DomainId outsider = kernel.createDomain("outsider");
    const vm::SegmentId seg = kernel.createSegment("data", 4);
    kernel.attach(writer, seg, vm::Access::ReadWrite);
    kernel.attach(reader, seg, vm::Access::Read); // D bit for reader
    const vm::VAddr base = sys.state().segments.find(seg)->base();

    TextTable table({"domain", "load", "store", "mechanism"});
    struct Case
    {
        os::DomainId domain;
        const char *name;
        const char *mechanism;
    };
    for (const Case &c :
         {Case{writer, "writer", "PID match, D=0"},
          Case{reader, "reader", "PID match, D=1 blocks stores"},
          Case{outsider, "outsider", "no PID match -> fault"}}) {
        kernel.switchTo(c.domain);
        const bool load_ok = sys.load(base);
        const bool store_ok = sys.store(base);
        table.addRow({c.name, load_ok ? "allowed" : "denied",
                      store_ok ? "allowed" : "denied", c.mechanism});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &) {
        printCriticalPath();
        printCheckSemantics();
        return 0;
    });
}
