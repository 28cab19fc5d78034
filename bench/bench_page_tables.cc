/**
 * @file
 * Experiment C7: page-table space (Section 3.1).
 *
 * "Linear page tables cannot represent such sparse sets of mappings
 * compactly. Second, translation mappings for shared pages must be
 * duplicated in the page tables for each domain."
 *
 * Compares, for D domains sharing S segments scattered across the
 * 64-bit space:
 *  - per-domain flat linear tables (VAX-style);
 *  - per-domain two-level tables (only touched leaves allocated);
 *  - the single address space organization: one global hashed
 *    translation table + per-domain protection tables.
 */

#include "bench_common.hh"

#include "vm/linear_page_table.hh"
#include "vm/page_table.hh"

using namespace sasos;

namespace
{

struct SpaceResult
{
    u64 flatBytes = 0;
    u64 twoLevelBytes = 0;
    u64 globalBytes = 0;
    u64 protBytes = 0;
};

SpaceResult
measureSpace(u64 domains, u64 shared_segments, u64 private_segments,
             u64 pages_per_segment, u64 scatter)
{
    // Scatter segments across the address space like a sparse SASOS
    // layout: each segment starts `scatter` pages after the previous.
    SpaceResult result;
    constexpr u64 kPteBytes = 8;
    constexpr u64 kHashEntryBytes = 16; // vpn + pfn + chain
    constexpr u64 kProtEntryBytes = 16; // segment id + rights

    std::vector<u64> segment_bases;
    u64 next = 0x100;
    const u64 total_segments =
        shared_segments + domains * private_segments;
    for (u64 s = 0; s < total_segments; ++s) {
        segment_bases.push_back(next);
        next += pages_per_segment + scatter;
    }

    u64 total_mapped = 0;
    for (u64 d = 0; d < domains; ++d) {
        vm::LinearPageTableModel linear(kPteBytes);
        // Shared segments: every domain maps all of them (duplicated
        // translations in the per-domain tables).
        for (u64 s = 0; s < shared_segments; ++s)
            linear.addRange(vm::Vpn(segment_bases[s]), pages_per_segment);
        // Private segments.
        for (u64 p = 0; p < private_segments; ++p) {
            const u64 index = shared_segments + d * private_segments + p;
            linear.addRange(vm::Vpn(segment_bases[index]),
                            pages_per_segment);
        }
        result.flatBytes += linear.flatBytes();
        result.twoLevelBytes += linear.twoLevelBytes();
        total_mapped = std::max(total_mapped, linear.mappedPages());
    }

    // Global organization: each distinct page is translated once.
    const u64 distinct_pages =
        (shared_segments + domains * private_segments) * pages_per_segment;
    result.globalBytes = distinct_pages * kHashEntryBytes;
    // Per-domain protection: one segment-grant record per attachment.
    result.protBytes =
        domains * (shared_segments + private_segments) * kProtEntryBytes;
    return result;
}

void
printSpaceTable(const Options &options)
{
    (void)options;
    bench::printHeader(
        "C7: page-table space vs sharing degree (Section 3.1)",
        "8 shared + 2 private segments of 256 pages per domain, "
        "scattered 1M pages apart (sparse 64-bit layout). Linear "
        "tables duplicate shared mappings per domain; the global "
        "table stores each translation once.");

    TextTable table({"domains", "per-domain flat", "per-domain 2-level",
                     "global + protection", "2-level / global"});
    for (u64 domains : {1, 2, 4, 8, 16, 32}) {
        const SpaceResult space =
            measureSpace(domains, 8, 2, 256, u64{1} << 20);
        const u64 global_total = space.globalBytes + space.protBytes;
        table.addRow(
            {TextTable::num(domains), TextTable::num(space.flatBytes),
             TextTable::num(space.twoLevelBytes),
             TextTable::num(global_total),
             TextTable::ratio(static_cast<double>(space.twoLevelBytes) /
                                  static_cast<double>(global_total),
                              1)});
    }
    table.print(std::cout);
    std::cout << "shape check: per-domain organizations grow linearly "
                 "with sharing domains; the global organization grows "
                 "only by one protection record per attachment.\n";
}

void
printSparsityTable(const Options &options)
{
    (void)options;
    bench::printHeader(
        "C7b: sparsity penalty of linear tables",
        "One domain mapping 16 segments of 64 pages; the scatter "
        "between segments is swept. Flat tables pay for the span.");

    TextTable table({"scatter (pages)", "flat bytes", "2-level bytes",
                     "dense bytes"});
    for (u64 scatter : {0, 1 << 10, 1 << 16, 1 << 22}) {
        vm::LinearPageTableModel linear(8);
        u64 next = 0x100;
        for (int s = 0; s < 16; ++s) {
            linear.addRange(vm::Vpn(next), 64);
            next += 64 + scatter;
        }
        table.addRow({TextTable::num(scatter),
                      TextTable::num(linear.flatBytes()),
                      TextTable::num(linear.twoLevelBytes()),
                      TextTable::num(linear.denseBytes())});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printSpaceTable(options);
        printSparsityTable(options);
        return 0;
    });
}
