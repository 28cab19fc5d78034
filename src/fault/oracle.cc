#include "fault/oracle.hh"

#include <algorithm>

#include "core/system.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"
#include "vm/address.hh"

namespace sasos::fault
{

namespace
{

/** Rights values the scenario draws grants and churn from. */
constexpr vm::Access kPalette[] = {
    vm::Access::None,       vm::Access::Read, vm::Access::ReadWrite,
    vm::Access::ReadExecute, vm::Access::All,
};
constexpr u64 kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

/** One mid-stream rights manipulation, applied after reference
 * `afterRef` completes. Kinds: 0 setPageRights, 1 setSegmentRights,
 * 2 restrictPage(Read), 3 unrestrictPage. */
struct ChurnOp
{
    u64 afterRef = 0;
    int kind = 0;
    u32 domainIdx = 0;
    u32 segIdx = 0;
    u64 pageIdx = 0;
    vm::Access rights = vm::Access::None;
};

/** The seed-derived scenario, fixed before any system runs. Every
 * decision the campaign makes is recorded here (never taken from a
 * running system), so all eight runs see identical operation streams. */
struct Scenario
{
    /** grants[domainIdx][segIdx]; None means not attached. */
    std::vector<std::vector<vm::Access>> grants;
    std::vector<ChurnOp> churn;
};

/** Per-system handles, identical across runs by construction. */
struct Layout
{
    std::vector<os::DomainId> domains;
    std::vector<vm::SegmentId> segs;
    /** First vpn of each segment. */
    std::vector<u64> firstPage;
};

Scenario
buildScenario(const CampaignConfig &config)
{
    Scenario scenario;
    Rng rng(config.scenarioSeed);
    scenario.grants.resize(config.domains);
    for (u32 d = 0; d < config.domains; ++d) {
        scenario.grants[d].resize(config.segments);
        for (u32 s = 0; s < config.segments; ++s) {
            // Mostly real grants, some None so deny/exception paths
            // run too.
            scenario.grants[d][s] =
                rng.bernoulli(0.15)
                    ? vm::Access::None
                    : kPalette[1 + rng.nextBelow(kPaletteSize - 1)];
        }
    }
    // Every segment gets at least one attached domain, so churn's
    // setSegmentRights always has a legal target.
    for (u32 s = 0; s < config.segments; ++s) {
        bool attached = false;
        for (u32 d = 0; d < config.domains; ++d)
            attached |= scenario.grants[d][s] != vm::Access::None;
        if (!attached)
            scenario.grants[0][s] = vm::Access::All;
    }
    if (config.rightsChurnEvery > 0) {
        for (u64 at = config.rightsChurnEvery; at < config.references;
             at += config.rightsChurnEvery) {
            ChurnOp op;
            op.afterRef = at;
            op.kind = static_cast<int>(rng.nextBelow(4));
            op.domainIdx = static_cast<u32>(rng.nextBelow(config.domains));
            op.segIdx = static_cast<u32>(rng.nextBelow(config.segments));
            op.pageIdx = rng.nextBelow(config.pagesPerSegment);
            op.rights = kPalette[rng.nextBelow(kPaletteSize)];
            // setSegmentRights on an unattached segment would be an
            // implicit attach, bypassing the kernel's bookkeeping;
            // degrade to a page override instead. The guard reads only
            // the scenario, so every run degrades identically.
            if (op.kind == 1 &&
                scenario.grants[op.domainIdx][op.segIdx] ==
                    vm::Access::None) {
                op.kind = 0;
            }
            scenario.churn.push_back(op);
        }
    }
    return scenario;
}

/** Create domains and segments and apply the grant matrix. */
Layout
setupSystem(core::System &sys, const CampaignConfig &config,
            const Scenario &scenario)
{
    Layout layout;
    for (u32 d = 0; d < config.domains; ++d) {
        layout.domains.push_back(
            sys.kernel().createDomain("dom" + std::to_string(d)));
    }
    for (u32 s = 0; s < config.segments; ++s) {
        const vm::SegmentId seg = sys.kernel().createSegment(
            "seg" + std::to_string(s), config.pagesPerSegment);
        layout.segs.push_back(seg);
        const vm::Segment *segment = sys.state().segments.find(seg);
        SASOS_ASSERT(segment != nullptr, "campaign segment vanished");
        layout.firstPage.push_back(segment->firstPage.number());
    }
    for (u32 d = 0; d < config.domains; ++d) {
        for (u32 s = 0; s < config.segments; ++s) {
            if (scenario.grants[d][s] != vm::Access::None) {
                sys.kernel().attach(layout.domains[d], layout.segs[s],
                                    scenario.grants[d][s]);
            }
        }
    }
    sys.kernel().switchTo(layout.domains[0]);
    return layout;
}

/** Synthesize the reference stream into an on-disk trace. */
void
generateTrace(const CampaignConfig &config, const Layout &layout,
              const std::string &path)
{
    trace::TraceWriter writer(path);
    // Distinct stream so trace shape is independent of the grant rolls.
    Rng rng(config.scenarioSeed ^ 0x9e3779b97f4a7c15ull);
    u16 current = 0;
    u64 refs = 0;
    while (refs < config.references) {
        if (rng.bernoulli(config.switchFraction)) {
            current = static_cast<u16>(rng.nextBelow(config.domains));
            writer.append(
                trace::TraceRecord{trace::TraceOp::Switch, current, 0});
            continue;
        }
        const u64 seg = rng.nextBelow(config.segments);
        const u64 page = rng.nextBelow(config.pagesPerSegment);
        const u64 offset = rng.nextBelow(vm::kPageBytes / 8) * 8;
        const vm::Vpn vpn(layout.firstPage[seg] + page);
        const u64 addr = vm::baseOf(vpn).raw() + offset;
        const double p = rng.nextReal();
        trace::TraceOp op = trace::TraceOp::Load;
        if (p < config.storeFraction)
            op = trace::TraceOp::Store;
        else if (p < config.storeFraction + config.ifetchFraction)
            op = trace::TraceOp::IFetch;
        writer.append(trace::TraceRecord{op, current, addr});
        ++refs;
    }
    writer.close();
}

void
applyChurn(core::System &sys, const Layout &layout, const ChurnOp &op)
{
    const vm::Vpn vpn(layout.firstPage[op.segIdx] + op.pageIdx);
    switch (op.kind) {
      case 0:
        sys.kernel().setPageRights(layout.domains[op.domainIdx], vpn,
                                   op.rights);
        break;
      case 1:
        sys.kernel().setSegmentRights(layout.domains[op.domainIdx],
                                      layout.segs[op.segIdx], op.rights);
        break;
      case 2:
        sys.kernel().restrictPage(vpn, vm::Access::Read);
        break;
      case 3:
        sys.kernel().unrestrictPage(vpn);
        break;
    }
}

/** Replay the campaign trace on `sys`, applying the rights churn
 * between references. */
void
replayCampaign(core::System &sys, const CampaignConfig &config,
               const Scenario &scenario, const std::string &trace_path,
               const Layout &expected, RunOutcome &run)
{
    const Layout layout = setupSystem(sys, config, scenario);
    SASOS_ASSERT(layout.firstPage == expected.firstPage &&
                     layout.domains == expected.domains,
                 "campaign layout diverged between systems");

    std::map<u16, os::DomainId> domain_map;
    for (u32 d = 0; d < config.domains; ++d)
        domain_map[static_cast<u16>(d)] = layout.domains[d];

    run.decisions.reserve(config.references);
    std::size_t next_churn = 0;
    u64 ref_index = 0;
    const trace::ReplayObserver observer =
        [&](const trace::TraceRecord &, bool ok) {
            run.decisions.push_back(ok ? 1 : 0);
            ++ref_index;
            while (next_churn < scenario.churn.size() &&
                   scenario.churn[next_churn].afterRef == ref_index) {
                applyChurn(sys, layout, scenario.churn[next_churn]);
                ++next_churn;
            }
        };

    trace::TraceReader reader(trace_path);
    trace::replay(sys, reader, domain_map, observer);
}

std::string
runName(const RunOutcome &run)
{
    return run.model + (run.injected ? "+faults" : "+clean");
}

} // namespace

void
runModel(core::ModelKind kind, bool injected, const FaultConfig &faults,
         RunOutcome &run, const std::function<void(core::System &)> &drive)
{
    core::SystemConfig sc = core::SystemConfig::forModel(kind);
    sc.faults = faults;
    sc.faults.enabled = injected;
    core::System sys(sc);
    run.model = core::toString(kind);
    run.injected = injected;
    drive(sys);

    run.completed = static_cast<u64>(
        std::count(run.decisions.begin(), run.decisions.end(), 1));
    run.failed = run.decisions.size() - run.completed;
    run.simCycles = sys.cycles().count();
    const os::Kernel &kernel = sys.kernel();
    run.protectionFaults = kernel.protectionFaults.value();
    run.translationFaults = kernel.translationFaults.value();
    run.staleFaults = kernel.staleFaults.value();
    run.faultRetries = kernel.faultRetries.value();
    run.domainSwitches = kernel.domainSwitches.value();
    run.forks = kernel.forks.value();
    run.cowFaults = kernel.cowFaults.value();
    run.cowCopies = kernel.cowCopies.value();
    run.cowReuses = kernel.cowReuses.value();
    if (sys.injector() != nullptr) {
        run.injectedEvents = sys.injector()->injected.value();
        run.transients = sys.injector()->transients.value();
    }
    probeFinalState(sys, run);
}

void
probeFinalState(core::System &sys, RunOutcome &run)
{
    std::string snapshot;
    const std::vector<vm::SegmentId> segs = sys.state().segments.liveIds();
    for (const auto &[domain, record] : sys.state().domains()) {
        for (vm::SegmentId seg_id : segs) {
            const vm::Segment *seg = sys.state().segments.find(seg_id);
            for (u64 page = 0; page < seg->pages; ++page) {
                const vm::Vpn vpn(seg->firstPage.number() + page);
                const vm::Access canonical =
                    sys.kernel().canonicalRights(domain, vpn);
                snapshot.push_back(
                    static_cast<char>('0' + static_cast<u8>(canonical)));
                if (!vm::includes(canonical,
                                  sys.model().cachedRights(domain, vpn)))
                    run.hwWithinCanonical = false;
            }
        }
    }
    run.rightsSnapshot = std::move(snapshot);
}

void
compareRun(const RunOutcome &baseline, const RunOutcome &run,
           u64 references, const std::string &prefix,
           const std::string &expected, std::vector<std::string> &violations)
{
    const std::string name = prefix + runName(run);
    if (run.decisions.size() != references) {
        violations.push_back(name + ": replayed " +
                             std::to_string(run.decisions.size()) +
                             " references, " + expected + " " +
                             std::to_string(references));
    }
    if (!run.hwWithinCanonical) {
        violations.push_back(name +
                             ": hardware rights exceed canonical rights");
    }
    if (run.decisions != baseline.decisions) {
        const auto at = std::mismatch(run.decisions.begin(),
                                      run.decisions.end(),
                                      baseline.decisions.begin(),
                                      baseline.decisions.end())
                            .first -
                        run.decisions.begin();
        violations.push_back(name + ": allow/deny diverges from " +
                             runName(baseline) + " at reference " +
                             std::to_string(at));
    }
    if (run.rightsSnapshot != baseline.rightsSnapshot) {
        violations.push_back(name +
                             ": final canonical rights diverge from " +
                             runName(baseline));
    }
}

CampaignResult
runCampaign(const CampaignConfig &config, const std::string &trace_path)
{
    const Scenario scenario = buildScenario(config);

    // Probe system: fixes the segment layout (deterministic given the
    // same creation sequence) so the trace can be generated before the
    // measured runs; each run asserts it reproduced the layout.
    Layout layout;
    {
        core::System probe(
            core::SystemConfig::forModel(core::ModelKind::Plb));
        layout = setupSystem(probe, config, scenario);
    }
    generateTrace(config, layout, trace_path);

    CampaignResult result;
    result.references = config.references;
    runDifferential(result, config.faults, "", "expected",
                    [&](core::System &sys, RunOutcome &run) {
                        replayCampaign(sys, config, scenario, trace_path,
                                       layout, run);
                    });
    return result;
}

} // namespace sasos::fault
