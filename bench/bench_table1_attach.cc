/**
 * @file
 * Experiment T1.a: Table 1 rows "Attach Segment" / "Detach Segment".
 *
 * Paper predictions:
 *  - attach is cheap everywhere (page-group: add a group id; PLB:
 *    nothing, rights fault in lazily);
 *  - detach is O(1) on the page-group model but a full PLB scan on
 *    the domain-page model ("inspect each entry and eliminate those
 *    for the segment-domain pair").
 *
 * The first table isolates a single attach -> touch -> detach episode
 * and decomposes where the cycles go; the second runs the churn
 * workload (file open/close pattern) end to end.
 */

#include "bench_common.hh"

#include "workload/attach_churn.hh"

using namespace sasos;

namespace
{

struct EpisodeCost
{
    u64 attachCycles = 0;
    u64 touchCycles = 0;
    u64 detachCycles = 0;
    u64 detachScans = 0;
};

EpisodeCost
measureEpisode(const core::SystemConfig &config, u64 seg_pages,
               u64 touches, u64 warm_pages)
{
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId d = kernel.createDomain("app");
    // Warm state: the domain already uses other segments, so the PLB
    // holds entries the detach scan must wade through.
    const vm::SegmentId warm = kernel.createSegment("warm", warm_pages);
    kernel.attach(d, warm, vm::Access::ReadWrite);
    kernel.switchTo(d);
    const vm::VAddr warm_base = sys.state().segments.find(warm)->base();
    sys.touchRange(warm_base, warm_pages * vm::kPageBytes);

    const vm::SegmentId seg = kernel.createSegment("file", seg_pages);
    const vm::VAddr base = sys.state().segments.find(seg)->base();

    EpisodeCost cost;
    u64 mark = sys.cycles().count();
    kernel.attach(d, seg, vm::Access::ReadWrite);
    cost.attachCycles = sys.cycles().count() - mark;

    mark = sys.cycles().count();
    for (u64 t = 0; t < touches; ++t)
        sys.load(base + (t % seg_pages) * vm::kPageBytes);
    cost.touchCycles = sys.cycles().count() - mark;

    u64 scans_before = 0;
    if (auto *plb = sys.plbSystem())
        scans_before = plb->plb().purgeScans.value();
    mark = sys.cycles().count();
    kernel.detach(d, seg);
    cost.detachCycles = sys.cycles().count() - mark;
    if (auto *plb = sys.plbSystem())
        cost.detachScans = plb->plb().purgeScans.value() - scans_before;
    return cost;
}

void
printEpisodeTable(const Options &options)
{
    bench::printHeader(
        "Table 1: Attach / Detach Segment (single episode)",
        "Attach then touch 16 pages then detach, with 64 warm pages "
        "already cached. Cycles per step (kernel trap included).");

    TextTable table({"system", "attach", "touch 16 pages", "detach",
                     "detach PLB entries scanned"});
    for (const auto &model : bench::extendedModels(options)) {
        const EpisodeCost cost = measureEpisode(model.config, 16, 16, 64);
        table.addRow({model.label, TextTable::num(cost.attachCycles),
                      TextTable::num(cost.touchCycles),
                      TextTable::num(cost.detachCycles),
                      cost.detachScans ? TextTable::num(cost.detachScans)
                                       : std::string("-")});
    }
    table.print(std::cout);
}

void
printChurnTable(const Options &options)
{
    bench::printHeader(
        "Attach/detach churn (file open/close pattern)",
        "200 episodes over a 16-segment pool, 16 page touches each.");

    wl::AttachChurnConfig churn;
    churn.episodes = options.getU64("episodes", 200);
    churn.segmentPages = options.getU64("segmentPages", 64);
    churn.pagesTouched = options.getU64("pagesTouched", 16);

    TextTable table({"system", "cycles/episode", "kernel-work cycles",
                     "refill cycles", "vs plb"});
    double plb_baseline = 0.0;
    for (const auto &model : bench::extendedModels(options)) {
        core::System sys(model.config);
        const wl::AttachChurnResult result =
            wl::AttachChurnWorkload(churn).run(sys);
        if (plb_baseline == 0.0)
            plb_baseline = result.cyclesPerEpisode();
        table.addRow(
            {model.label, TextTable::num(result.cyclesPerEpisode(), 1),
             TextTable::num(
                 result.cycles.byCategory(CostCategory::KernelWork)
                     .count()),
             TextTable::num(
                 result.cycles.byCategory(CostCategory::Refill).count()),
             bench::normalized(result.cyclesPerEpisode(), plb_baseline)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printEpisodeTable(options);
        printChurnTable(options);
        return 0;
    });
}
