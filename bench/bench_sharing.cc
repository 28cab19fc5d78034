/**
 * @file
 * Experiment C4: entry replication and the sharing regimes of
 * Sections 3.1 and 4.1.2.
 *
 * Paper predictions:
 *  - the ASID-tagged TLB and the PLB replicate one entry per sharing
 *    domain, so occupancy and miss rate grow with the number of
 *    sharers; the page-group TLB keeps one entry per page;
 *  - "A PLB system will take fewer faults in situations where there
 *    is active sharing and frequent protection changes ... the
 *    page-group implementation will incur fewer TLB misses in
 *    situations where sharing is static or protection changes are
 *    infrequent."
 */

#include "bench_common.hh"

#include <algorithm>

#include "workload/sharing.hh"

using namespace sasos;

namespace
{

void
printReplicationSweep(const Options &options)
{
    bench::printHeader(
        "C4a: protection-entry replication vs sharing degree",
        "D domains share the same hot pages; page-grain PLB (no "
        "super-pages) to isolate the replication effect.");

    TextTable table({"domains", "plb entries", "plb miss rate",
                     "pg-tlb entries", "pg-tlb miss rate",
                     "conv-tlb entries", "conv miss rate",
                     "pkey-tlb entries", "pkey miss rate"});
    for (u64 domains : {1, 2, 4, 8, 16}) {
        wl::SharingConfig sharing;
        sharing.domains = domains;
        sharing.sharedSegments = 2;
        sharing.sharedPages = 16;
        sharing.privatePages = 4;
        sharing.quanta = 20 * domains;
        sharing.refsPerQuantum = 100;
        sharing.sharedFraction = 0.9;

        std::vector<std::string> row{TextTable::num(domains)};
        for (const auto &model : bench::standardModels(options)) {
            core::SystemConfig config = model.config;
            if (config.model == core::ModelKind::Plb) {
                config.superPagePlb = false;
                config.plb.sizeShifts = {vm::kPageShift};
            }
            core::System sys(config);
            const wl::SharingResult result =
                wl::SharingWorkload(sharing).run(sys);
            row.push_back(TextTable::num(result.occupancyEntries));
            row.push_back(
                TextTable::num(result.missRate() * 100.0, 2) + "%");
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "shape check: plb and conventional occupancy grow with "
                 "D; page-group stays near the page count.\n";
}

void
printRegimeCrossover(const Options &options)
{
    bench::printHeader(
        "C4b: static sharing vs frequent protection changes",
        "The Section 4.1.2 trade: protection-change cost (PLB wins) "
        "vs steady-state miss rate (page-group wins). The knob is how "
        "often one domain's rights on one shared page are toggled.");

    TextTable table({"prot changes", "plb cycles/ref",
                     "page-group cycles/ref", "pkey cycles/ref",
                     "winner"});
    struct Regime
    {
        const char *label;
        u64 period; // quanta between changes; 0 = never
    };
    for (const Regime &regime :
         {Regime{"never (static)", 0}, Regime{"every 16 quanta", 16},
          Regime{"every 4 quanta", 4}, Regime{"every quantum", 1}}) {
        wl::SharingConfig sharing;
        sharing.domains = 8;
        sharing.sharedSegments = 2;
        sharing.sharedPages = 16;
        sharing.privatePages = 4;
        sharing.quanta = 160;
        sharing.refsPerQuantum = 50;
        sharing.sharedFraction = 0.9;
        sharing.protChangePeriod = regime.period;

        double cycles[3] = {0, 0, 0};
        int index = 0;
        for (const auto &model : bench::standardModels(options)) {
            if (model.label == "conventional")
                continue;
            core::SystemConfig config = model.config;
            if (config.model == core::ModelKind::Plb) {
                config.superPagePlb = false;
                config.plb.sizeShifts = {vm::kPageShift};
                // Same entry count as the page-group TLB (Section 4's
                // comparison ground rule).
                config.plb.ways = config.tlb.ways;
            }
            core::System sys(config);
            const wl::SharingResult result =
                wl::SharingWorkload(sharing).run(sys);
            cycles[index++] = result.cyclesPerRef();
        }
        const char *labels[3] = {"plb", "page-group", "pkey"};
        const int best = static_cast<int>(
            std::min_element(cycles, cycles + 3) - cycles);
        table.addRow({regime.label, TextTable::num(cycles[0], 2),
                      TextTable::num(cycles[1], 2),
                      TextTable::num(cycles[2], 2), labels[best]});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printReplicationSweep(options);
        printRegimeCrossover(options);
        return 0;
    });
}
