/**
 * @file
 * Experiment C3: domain-switch cost (Section 4.1.4).
 *
 * Paper predictions:
 *  - PLB: one PD-ID register write; neither the PLB nor the TLB is
 *    purged, so no cold-start misses after the switch;
 *  - page-group: the page-group cache is purged and reloaded (lazily
 *    via faults, or eagerly);
 *  - conventional with ASIDs: a register write, but shared pages
 *    replicate entries; without ASIDs: a full TLB purge and a
 *    cold-start on every switch.
 */

#include "bench_common.hh"

#include "workload/rpc.hh"

using namespace sasos;

namespace
{

/** Cycles charged between fully warm quanta of two domains. */
struct SwitchCost
{
    double switchCycles = 0;   // DomainSwitch category per switch
    double refillCycles = 0;   // cold-start refills per switch
};

SwitchCost
measureSwitchCost(const core::SystemConfig &config, u64 ws_pages,
                  u64 rounds)
{
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    // Each domain works on its own segments plus one shared one.
    std::vector<vm::VAddr> a_pages, b_pages;
    const vm::SegmentId sa = kernel.createSegment("a-data", ws_pages);
    const vm::SegmentId sb = kernel.createSegment("b-data", ws_pages);
    const vm::SegmentId sh = kernel.createSegment("shared", ws_pages);
    kernel.attach(a, sa, vm::Access::ReadWrite);
    kernel.attach(b, sb, vm::Access::ReadWrite);
    kernel.attach(a, sh, vm::Access::ReadWrite);
    kernel.attach(b, sh, vm::Access::ReadWrite);
    const vm::VAddr base_a = sys.state().segments.find(sa)->base();
    const vm::VAddr base_b = sys.state().segments.find(sb)->base();
    const vm::VAddr base_s = sys.state().segments.find(sh)->base();

    auto quantum = [&](os::DomainId d, vm::VAddr own) {
        kernel.switchTo(d);
        for (u64 p = 0; p < ws_pages; ++p) {
            sys.load(own + p * vm::kPageBytes);
            sys.load(base_s + p * vm::kPageBytes);
        }
    };

    // Warm both domains.
    quantum(a, base_a);
    quantum(b, base_b);
    quantum(a, base_a);
    quantum(b, base_b);

    const CycleAccount before = sys.account();
    for (u64 round = 0; round < rounds; ++round) {
        quantum(a, base_a);
        quantum(b, base_b);
    }
    const CycleAccount delta = sys.account().since(before);
    SwitchCost cost;
    const double switches = static_cast<double>(2 * rounds);
    cost.switchCycles =
        static_cast<double>(
            delta.byCategory(CostCategory::DomainSwitch).count()) /
        switches;
    cost.refillCycles =
        static_cast<double>(
            delta.byCategory(CostCategory::Refill).count()) /
        switches;
    return cost;
}

void
printSwitchTable(const Options &options)
{
    bench::printHeader(
        "C3: domain switch cost vs working set (Section 4.1.4)",
        "Two domains alternate quanta over private + shared working "
        "sets; cost charged per switch once everything is warm. "
        "Cold-start refills after the switch are the hidden price of "
        "purging.");

    std::vector<bench::ModelUnderTest> models =
        bench::extendedModels(options);
    {
        core::SystemConfig eager = core::SystemConfig::fromOptions(
            options, core::SystemConfig::pageGroupSystem());
        eager.eagerPgReload = true;
        models.push_back({"pg-eager", eager});
    }

    for (u64 ws : {4, 16, 64}) {
        TextTable table({"system (ws=" + std::to_string(ws) + " pages)",
                         "switch cycles", "refill cycles/switch",
                         "effective total"});
        for (const auto &model : models) {
            const SwitchCost cost =
                measureSwitchCost(model.config, ws, 20);
            table.addRow({model.label,
                          TextTable::num(cost.switchCycles, 1),
                          TextTable::num(cost.refillCycles, 1),
                          TextTable::num(
                              cost.switchCycles + cost.refillCycles, 1)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "shape check: the plb stays flat (super-page entries, "
                 "nothing purged); conv-purge grows with the working "
                 "set; page-group pays per active group; conv-asid "
                 "stays flat until per-domain replication exceeds the "
                 "TLB capacity (Section 3.1's effective-size loss).\n";
}

void
printRpcComparison(const Options &options)
{
    bench::printHeader(
        "RPC ping-pong end to end",
        "The motivating scenario: server-structured systems switch "
        "domains on every call (Section 2.1).");

    wl::RpcConfig rpc;
    rpc.calls = options.getU64("calls", 500);

    TextTable table({"system", "cycles/call", "switch", "refill",
                     "vs plb"});
    double plb_per_call = 0.0;
    std::vector<bench::ModelUnderTest> models =
        bench::extendedModels(options);
    for (const auto &model : models) {
        core::System sys(model.config);
        const wl::RpcResult result = wl::RpcWorkload(rpc).run(sys);
        const double per_call = result.cyclesPerCall();
        if (plb_per_call == 0.0)
            plb_per_call = per_call;
        table.addRow(
            {model.label, TextTable::num(per_call, 1),
             TextTable::num(
                 static_cast<double>(
                     result.cycles.byCategory(CostCategory::DomainSwitch)
                         .count()) /
                     result.calls,
                 1),
             TextTable::num(
                 static_cast<double>(
                     result.cycles.byCategory(CostCategory::Refill)
                         .count()) /
                     result.calls,
                 1),
             bench::normalized(per_call, plb_per_call)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printSwitchTable(options);
        printRpcComparison(options);
        return 0;
    });
}
