/**
 * @file
 * Experiment E2E: every Table 1 application on every architecture --
 * the paper's overall comparison, as one summary table.
 *
 * The paper's conclusion to reproduce in shape: each model wins where
 * its structure matches the operation mix. Attach/detach-heavy and
 * static-sharing workloads favor the page-group model; per-(domain,
 * page) rights churn (DVM, transactions) favors the PLB; everything
 * beats purging conventional TLBs for switch-heavy work.
 */

#include "bench_common.hh"

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

/** Run one named workload on one system; return protection-relevant
 * cycles (excluding disk/network time, which is model-independent). */
using WorkloadRunner = std::function<u64(core::System &)>;

struct NamedWorkload
{
    std::string name;
    WorkloadRunner run;
};

std::vector<NamedWorkload>
buildWorkloads(const Options &options)
{
    (void)options;
    std::vector<NamedWorkload> workloads;

    workloads.push_back({"rpc", [](core::System &sys) {
        wl::RpcConfig config;
        config.calls = 400;
        return wl::RpcWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"attach-churn", [](core::System &sys) {
        wl::AttachChurnConfig config;
        config.episodes = 150;
        return wl::AttachChurnWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"sharing-static", [](core::System &sys) {
        wl::SharingConfig config;
        config.domains = 8;
        config.quanta = 120;
        return wl::SharingWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"sharing-dynamic", [](core::System &sys) {
        wl::SharingConfig config;
        config.domains = 8;
        config.quanta = 120;
        config.protChangePeriod = 2;
        return wl::SharingWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"concurrent-gc", [](core::System &sys) {
        wl::GcConfig config;
        config.collections = 6;
        config.spacePages = 48;
        return wl::GcWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"distributed-vm", [](core::System &sys) {
        wl::DvmConfig config;
        config.quanta = 150;
        return wl::DvmWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"transactional-vm", [](core::System &sys) {
        wl::TxvmConfig config;
        config.commits = 80;
        return wl::TxvmWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    workloads.push_back({"checkpoint", [](core::System &sys) {
        wl::CheckpointConfig config;
        config.checkpoints = 3;
        config.refsBetween = 2500;
        return wl::CheckpointWorkload(config).run(sys).cycles
            .totalExcludingIo()
            .count();
    }});
    return workloads;
}

void
printGrandTable(const Options &options)
{
    bench::printHeader(
        "E2E: all Table 1 applications x all architectures",
        "Protection-relevant cycles (disk/network excluded), "
        "normalized to the PLB system per row. Lower is better.");

    const auto workloads = buildWorkloads(options);
    auto models = bench::extendedModels(options);

    std::vector<std::string> headers{"workload"};
    for (const auto &model : models)
        headers.push_back(model.label);
    headers.push_back("winner");
    TextTable table(headers);

    std::map<std::string, int> wins;
    for (const auto &workload : workloads) {
        std::vector<u64> cycles;
        for (const auto &model : models) {
            core::SystemConfig config = model.config;
            core::System sys(config);
            cycles.push_back(workload.run(sys));
        }
        const double baseline = static_cast<double>(cycles[0]);
        std::vector<std::string> row{workload.name};
        std::size_t best = 0;
        for (std::size_t i = 0; i < cycles.size(); ++i) {
            row.push_back(bench::normalized(
                static_cast<double>(cycles[i]), baseline));
            if (cycles[i] < cycles[best])
                best = i;
        }
        row.push_back(models[best].label);
        ++wins[models[best].label];
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nwins by architecture:";
    for (const auto &[label, count] : wins)
        std::cout << " " << label << "=" << count;
    std::cout << "\npaper: \"Many of the answers will depend on how the "
                 "systems will be used, i.e., which operations are most "
                 "common.\" -- no model dominates every row.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, [](const Options &options) {
        printGrandTable(options);
        return 0;
    });
}
