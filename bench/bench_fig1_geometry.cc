/**
 * @file
 * Experiment F1/C1/C2: Figure 1 geometry and the paper's sizing
 * claims.
 *
 *  - Figure 1 field widths (52-bit VPN, 16-bit PD-ID, 3-bit rights);
 *  - C2: PLB entries ~25% smaller than page-group TLB entries, so
 *    more of them fit in the same silicon;
 *  - C1: a virtually tagged cache is ~10% larger than a physically
 *    tagged one at the paper's parameters (64-bit VA, 36-bit PA,
 *    32-byte lines).
 */

#include "bench_common.hh"

using namespace sasos;
using namespace sasos::hw::sizing;

namespace
{

void
printFigure1()
{
    bench::printHeader(
        "Figure 1: PLB entry fields",
        "64-bit addresses, 4 KB pages, fully associative PLB.");
    SizingParams params;
    const EntryLayout plb = plbEntry(params);
    TextTable table({"field", "bits"});
    for (const Field &field : plb.fields)
        table.addRow({field.name, TextTable::num(field.bits)});
    table.addSeparator();
    table.addRow({"total", TextTable::num(plb.totalBits())});
    table.print(std::cout);
    std::cout << "paper: VPN 52 bits, PD-ID 16 bits, Rights 3 bits\n";
}

void
printEntryComparison()
{
    bench::printHeader(
        "C2: entry sizes across protection structures",
        "\"PLB entries are smaller than page-group TLB entries (about "
        "25%...) since they don't contain virtual-to-physical "
        "translations, allowing more entries in the same amount of "
        "space.\"");
    SizingParams params;
    struct Row
    {
        const char *name;
        EntryLayout layout;
    };
    const Row rows[] = {
        {"plb", plbEntry(params)},
        {"page-group tlb", pageGroupTlbEntry(params)},
        {"conventional tlb", conventionalTlbEntry(params)},
        {"translation-only tlb", translationTlbEntry(params)},
    };
    const double pg_bits =
        static_cast<double>(pageGroupTlbEntry(params).totalBits());
    TextTable table({"structure", "bits/entry", "vs page-group TLB",
                     "entries in 128-entry TLB's area"});
    for (const Row &row : rows) {
        table.addRow({row.name, TextTable::num(row.layout.totalBits()),
                      TextTable::num(
                          100.0 * (1.0 - row.layout.totalBits() / pg_bits),
                          1) + "% smaller",
                      TextTable::num(entriesInSameArea(
                          row.layout, pageGroupTlbEntry(params), 128))});
    }
    table.print(std::cout);
}

void
printCacheOverhead()
{
    bench::printHeader(
        "C1: virtually tagged vs physically tagged cache size",
        "\"in a system with 64-bit virtual addresses, 36-bit physical "
        "addresses and 32 byte cache lines, a virtually tagged cache "
        "would be about 10% larger\"");
    TextTable table({"cache", "line", "virtual-tag bits",
                     "physical-tag bits", "overhead"});
    for (u64 size_kb : {16, 64, 256}) {
        for (u32 line : {32u, 64u, 128u}) {
            CacheSizing cache;
            cache.sizeBytes = size_kb * 1024;
            cache.lineBytes = line;
            table.addRow({std::to_string(size_kb) + " KB",
                          std::to_string(line) + " B",
                          TextTable::num(
                              cacheTotalBits(cache, Tagging::Virtual)),
                          TextTable::num(
                              cacheTotalBits(cache, Tagging::Physical)),
                          TextTable::num(
                              100.0 * (virtualTagOverhead(cache) - 1.0),
                              1) + "%"});
        }
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &) {
        printFigure1();
        printEntryComparison();
        printCacheOverhead();
        return 0;
    });
}
