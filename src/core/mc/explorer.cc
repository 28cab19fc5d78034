#include "core/mc/explorer.hh"

#include "core/system_config.hh"
#include "obs/tracer.hh"
#include "sim/parallel.hh"

namespace sasos::core::mc
{

namespace
{

/** Tids are partitioned per cell so traces merge deterministically:
 * cell i's cores use [i * kTidStride + 1, ...). */
constexpr u32 kTidStride = 64;

RunSummary
runOne(const McConfig &config)
{
    McSystem system(config);
    const McResult result = system.run();
    RunSummary summary;
    summary.scheduleSeed = config.scheduleSeed;
    summary.completed = result.completed;
    summary.failed = result.failed;
    summary.shootdowns = result.shootdowns;
    summary.staleWindowRefs = result.staleWindowRefs;
    summary.staleGrants = result.staleGrants;
    summary.invariantViolations = result.invariantViolations;
    summary.hwViolations = result.hwViolations;
    summary.cycles = result.cycles;
    summary.firstViolation = result.firstViolation;
    summary.quiescentOutcomes = result.quiescentOutcomes;
    summary.coreOutcomes = result.coreOutcomes;
    return summary;
}

} // namespace

ExplorerResult
explore(const ExplorerConfig &config)
{
    ExplorerResult result;
    result.runs.resize(config.seeds);
    parallelFor(config.threads, config.seeds, [&](u64 i) {
        McConfig cell = config.base;
        cell.scheduleSeed = config.firstSeed + i;
        cell.tidBase = static_cast<u32>(i) * kTidStride + 1;
        result.runs[i] = runOne(cell);
        obs::setThreadId(0);
    });
    for (const RunSummary &run : result.runs) {
        result.totalShootdowns += run.shootdowns;
        result.totalStaleGrants += run.staleGrants;
        result.totalViolations +=
            run.invariantViolations + run.hwViolations;
        if (result.firstViolation.empty() && !run.firstViolation.empty())
            result.firstViolation = run.firstViolation;
    }
    return result;
}

CrossModelResult
exploreCrossModel(const ExplorerConfig &config)
{
    constexpr auto kModels = allModels();
    CrossModelResult result;
    result.runs.resize(config.seeds);
    parallelFor(config.threads, config.seeds, [&](u64 i) {
        CrossModelRun &run = result.runs[i];
        run.scheduleSeed = config.firstSeed + i;
        // The models of one seed run serially in this cell so their
        // interleavings (and tids) stay directly comparable.
        for (unsigned m = 0; m < kModels.size(); ++m) {
            McConfig cell = config.base;
            const SystemConfig preset = SystemConfig::forModel(kModels[m]);
            cell.system = preset;
            cell.system.frames = config.base.system.frames;
            cell.system.seed = config.base.system.seed;
            cell.scheduleSeed = run.scheduleSeed;
            cell.tidBase = static_cast<u32>(i) * kTidStride + m * 16 + 1;
            run.byModel.push_back(runOne(cell));
        }
        obs::setThreadId(0);
        run.outcomesAgree = true;
        for (unsigned m = 1; m < kModels.size(); ++m) {
            run.outcomesAgree =
                run.outcomesAgree &&
                run.byModel[m - 1].quiescentOutcomes ==
                    run.byModel[m].quiescentOutcomes;
        }
    });
    for (const CrossModelRun &run : result.runs) {
        if (!run.outcomesAgree)
            ++result.disagreements;
        for (const RunSummary &model : run.byModel) {
            result.totalViolations +=
                model.invariantViolations + model.hwViolations;
            if (result.firstViolation.empty() &&
                !model.firstViolation.empty()) {
                result.firstViolation = model.firstViolation;
            }
        }
    }
    return result;
}

} // namespace sasos::core::mc
