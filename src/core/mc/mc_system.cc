#include "core/mc/mc_system.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/per_core_models.hh"
#include "core/system.hh" // saveConfigSignature/checkConfigSignature
#include "obs/export.hh"
#include "obs/tracer.hh"
#include "sim/logging.hh"
#include "snap/snapio.hh"

namespace sasos::core::mc
{

McConfig
McConfig::fromOptions(const Options &options)
{
    McConfig config;
    config.system =
        SystemConfig::fromOptions(options, SystemConfig::plbSystem());
    // Bounds are fatal, not clamped: an absurd knob value is a typo,
    // and silently running something else poisons sweep results.
    constexpr u64 kMaxSteps = u64{1} << 20;
    const u64 cores = options.getU64("cores", config.cores);
    if (cores < 1 || cores > 1024)
        SASOS_FATAL("cores must be in [1, 1024], got ", cores);
    config.cores = static_cast<unsigned>(cores);
    config.scheduleSeed =
        options.getU64("schedule_seed", config.scheduleSeed);
    config.quantum = options.getU64("mc_quantum", config.quantum);
    if (config.quantum < 1 || config.quantum > kMaxSteps)
        SASOS_FATAL("mc_quantum must be in [1, ", kMaxSteps, "], got ",
                    config.quantum);
    config.ipiDelaySteps =
        options.getU64("mc_ipi_delay", config.ipiDelaySteps);
    if (config.ipiDelaySteps > kMaxSteps)
        SASOS_FATAL("mc_ipi_delay must be at most ", kMaxSteps, ", got ",
                    config.ipiDelaySteps);
    config.coalesceWindow =
        options.getU64("mc_coalesce", config.coalesceWindow);
    if (config.coalesceWindow > kMaxSteps)
        SASOS_FATAL("mc_coalesce must be at most ", kMaxSteps, ", got ",
                    config.coalesceWindow);
    config.workload.seed = config.system.seed;
    config.workload.stepsPerCore =
        options.getU64("refs", config.workload.stepsPerCore);
    // Churn defaults on for option-driven runs: without kernel ops
    // there are no shootdowns to measure.
    config.workload.churnProb = options.getDouble("churn", 0.05);
    config.workload.forkProb = options.getDouble("mc_fork", 0.0);
    return config;
}

McSystem::McSystem(const McConfig &config)
    : config_(config), statsRoot_("mc-system"),
      references(&statsRoot_, "references", "references issued"),
      failedReferences(&statsRoot_, "failedReferences",
                       "references ending in an exception"),
      mcGroup(&statsRoot_, "mc"),
      slots(&mcGroup, "slots", "scheduling turns executed"),
      kernelOps(&mcGroup, "kernelOps",
                "kernel protection operations issued by scripts"),
      shootdowns(&mcGroup, "shootdowns",
                 "broadcast maintenance operations"),
      ipisSent(&mcGroup, "ipisSent", "inter-processor interrupts sent"),
      acks(&mcGroup, "acks", "inter-processor interrupts taken"),
      coalescedAcks(&mcGroup, "coalescedAcks",
                    "IPIs delivered piggy-backed in another dispatch"),
      staleWindowRefs(&mcGroup, "staleWindowRefs",
                      "references issued with an unacked IPI pending"),
      staleGrants(&mcGroup, "staleGrants",
                  "stale-window references granted beyond canonical"),
      quiescentRefs(&mcGroup, "quiescentRefs",
                    "references issued with no IPI pending locally"),
      staleEntriesPurged(&mcGroup, "staleEntriesPurged",
                         "stale hardware entries found by ack probes"),
      invariantViolations(&mcGroup, "invariantViolations",
                          "grants beyond canonical outside stale windows"),
      hwSubsetViolations(&mcGroup, "hwSubsetViolations",
                         "hardware rights beyond canonical at quiescence"),
      quiescentChecks(&mcGroup, "quiescentChecks",
                      "hw-subset-of-canonical sweeps performed"),
      shootdownLatency(&mcGroup, "shootdownLatency",
                       "cycles from IPI issue to the last ack", 500, 32),
      shootdownStaleRefs(&mcGroup, "shootdownStaleRefs",
                         "remote references inside each stale window", 1,
                         32),
      ackStaleEntries(&mcGroup, "ackStaleEntries",
                      "stale entries found per ack probe", 1, 32),
      state_(config.system.frames), schedule_(config.scheduleSeed)
{
    SASOS_ASSERT(config_.cores >= 1, "a machine needs at least one core");
    SASOS_ASSERT(config_.quantum >= 1, "quantum must be at least one step");
    model_ = std::make_unique<PerCoreModels>(
        config_.system, state_, account_,
        [this](MaintenanceOp apply, vm::Vpn first, u64 pages,
               std::optional<os::DomainId> domain) {
            broadcastOp(std::move(apply), first, pages, domain);
        });
    kernel_ = std::make_unique<os::Kernel>(state_, *model_,
                                           config_.system.costs, account_,
                                           &statsRoot_);
    cores_.reserve(config_.cores);
    for (unsigned i = 0; i < config_.cores; ++i) {
        stats::Group &group =
            model_->addCore(&statsRoot_, "core" + std::to_string(i));
        Core core;
        core.model = &model_->core(i);
        core.completedStat = std::make_unique<stats::Scalar>(
            &group, "completed", "references this core completed");
        core.failedStat = std::make_unique<stats::Scalar>(
            &group, "failed",
            "references this core saw end in an exception");
        core.cyclesStat = std::make_unique<stats::Scalar>(
            &group, "cycles",
            "simulated cycles attributed to this core's turns");
        cores_.push_back(std::move(core));
    }
    setupWorkload();
    synchronous_ = false;
    for (unsigned i = 0; i < cores_.size(); ++i)
        refreshRunnable(i);
}

void
McSystem::refreshRunnable(unsigned ci)
{
    const Core &c = cores_[ci];
    const bool runnable =
        !c.inbox.empty() || (c.barriers == 0 && !c.script->done());
    if (runnable)
        runnable_.insert(ci);
    else
        runnable_.erase(ci);
}

McSystem::~McSystem() = default;

/**
 * Deterministic setup, performed with broadcasts synchronous (no
 * shootdowns) and in a documented order so tests can replay it against
 * a plain System: one domain per core ("core0"...), the shared
 * segment + one ReadWrite attach per core in core order, then per
 * core (in core order) its private segment + attach, then optionally
 * premap every segment page in creation/address order.
 */
void
McSystem::setupWorkload()
{
    const McWorkloadConfig &wl = config_.workload;
    SASOS_ASSERT(wl.sharedPages > 0, "workload needs a shared segment");
    for (unsigned i = 0; i < cores_.size(); ++i)
        cores_[i].domain =
            kernel_->createDomain("core" + std::to_string(i));
    sharedSeg_ = kernel_->createSegment("shared", wl.sharedPages);
    const vm::Segment *shared = state_.segments.find(sharedSeg_);
    segments_.emplace_back(shared->firstPage, shared->pages);
    for (unsigned i = 0; i < cores_.size(); ++i) {
        model_->setCurrent(i);
        kernel_->attach(cores_[i].domain, sharedSeg_,
                        vm::Access::ReadWrite);
    }
    for (unsigned i = 0; i < cores_.size(); ++i) {
        Core &core = cores_[i];
        core.layout.sharedSeg = sharedSeg_;
        core.layout.sharedBase = shared->base();
        core.layout.sharedPages = shared->pages;
        if (wl.privatePages > 0) {
            model_->setCurrent(i);
            const vm::SegmentId seg = kernel_->createSegment(
                "private" + std::to_string(i), wl.privatePages);
            const vm::Segment *segment = state_.segments.find(seg);
            segments_.emplace_back(segment->firstPage, segment->pages);
            kernel_->attach(core.domain, seg, vm::Access::ReadWrite);
            core.layout.privateSeg = seg;
            core.layout.privateBase = segment->base();
            core.layout.privatePages = segment->pages;
        }
    }
    model_->setCurrent(0);
    if (config_.premap) {
        for (const auto &[first, pages] : segments_)
            for (u64 p = 0; p < pages; ++p)
                kernel_->mapPage(first + p);
    }
    for (unsigned i = 0; i < cores_.size(); ++i)
        cores_[i].script = std::make_unique<CoreScript>(
            wl, i, cores_[i].domain, cores_[i].layout);
}

os::DomainId
McSystem::domainOf(unsigned core) const
{
    SASOS_ASSERT(core < cores_.size(), "no core ", core);
    return cores_[core].domain;
}

const McLayout &
McSystem::layoutOf(unsigned core) const
{
    SASOS_ASSERT(core < cores_.size(), "no core ", core);
    return cores_[core].layout;
}

os::ProtectionModel &
McSystem::coreModel(unsigned core)
{
    SASOS_ASSERT(core < cores_.size(), "no core ", core);
    return *cores_[core].model;
}

void
McSystem::broadcastOp(std::function<void(os::ProtectionModel &)> apply,
                      vm::Vpn first, u64 pages,
                      std::optional<os::DomainId> domain)
{
    const unsigned issuer = model_->current();
    apply(*cores_[issuer].model);
    if (synchronous_) {
        // Setup: every core hears the hook immediately, no shootdown.
        for (unsigned i = 0; i < cores_.size(); ++i)
            if (i != issuer)
                apply(*cores_[i].model);
        return;
    }
    if (cores_.size() == 1) {
        // A single core has nobody to interrupt; keeping the counters
        // quiet here is what makes cores=1 bit-identical to System.
        return;
    }
    const u64 remotes = cores_.size() - 1;
    const u64 id = ++shootdownIds_;
    ++shootdowns;
    ipisSent += remotes;
    SASOS_OBS_EVENT(obs::EventKind::Shootdown, account_.total().count(),
                    id, remotes);
    account_.charge(CostCategory::KernelWork,
                    remotes * config_.system.costs.interProcessorInterrupt);
    inflight_.push_back(
        {id, issuer, remotes, account_.total().count(), 0});
    auto op = std::make_shared<const RemoteOp>(
        RemoteOp{id, std::move(apply), first, pages, domain});
    for (unsigned i = 0; i < cores_.size(); ++i) {
        if (i == issuer)
            continue;
        cores_[i].inbox.emplace_back(
            op, cores_[i].stepsExecuted + config_.ipiDelaySteps);
        refreshRunnable(i);
    }
    ++cores_[issuer].barriers;
    refreshRunnable(issuer);
}

void
McSystem::processAck(Core &c, const RemoteOp &op, bool charge_dispatch)
{
    const u64 stale = c.model->purgeForAck(op.domain, op.first, op.pages);
    staleEntriesPurged += stale;
    ackStaleEntries.sample(stale);
    if (charge_dispatch) {
        account_.charge(CostCategory::Trap,
                        config_.system.costs.ipiDispatch);
    } else {
        ++coalescedAcks;
    }
    op.apply(*c.model);
    ++acks;
    SASOS_OBS_EVENT(obs::EventKind::ShootdownAck, account_.total().count(),
                    op.shootdownId, stale);
    auto it = std::find_if(
        inflight_.begin(), inflight_.end(),
        [&](const Shootdown &s) { return s.id == op.shootdownId; });
    SASOS_ASSERT(it != inflight_.end(), "ack for unknown shootdown ",
                 op.shootdownId);
    SASOS_ASSERT(it->pendingAcks > 0, "shootdown over-acked");
    if (--it->pendingAcks == 0) {
        const unsigned issuer_index = it->issuer;
        Core &issuer = cores_[issuer_index];
        SASOS_ASSERT(issuer.barriers > 0, "issuer not at a barrier");
        --issuer.barriers;
        refreshRunnable(issuer_index);
        const u64 latency = account_.total().count() - it->issueCycle;
        shootdownLatency.sample(latency);
        shootdownStaleRefs.sample(it->staleRefs);
        SASOS_OBS_EVENT(obs::EventKind::ShootdownComplete,
                        account_.total().count(), op.shootdownId, latency);
        inflight_.erase(it);
        if (config_.checkInvariants && inflight_.empty())
            checkHwSubset();
    }
}

void
McSystem::deliverDue(Core &c)
{
    // Delivery thresholds are pushed in nondecreasing order (each is
    // the remote's step counter at issue time plus a constant), so
    // checking the front suffices.
    while (!c.inbox.empty() && c.inbox.front().second <= c.stepsExecuted) {
        const std::shared_ptr<const RemoteOp> op = c.inbox.front().first;
        c.inbox.pop_front();
        processAck(c, *op, /*charge_dispatch=*/true);
        if (config_.coalesceWindow == 0)
            continue;
        // One interrupt was just taken; ops due within the coalescing
        // window ride the same dispatch. Each still purges, applies
        // and acks individually -- the delivered-purge set is exactly
        // the uncoalesced one -- but skips the dispatch trap charge.
        // Taking them *now* shortens their remaining stale window.
        const u64 horizon = c.stepsExecuted + config_.coalesceWindow;
        while (!c.inbox.empty() && c.inbox.front().second <= horizon) {
            const std::shared_ptr<const RemoteOp> merged =
                c.inbox.front().first;
            c.inbox.pop_front();
            processAck(c, *merged, /*charge_dispatch=*/false);
        }
    }
}

bool
McSystem::issueRef(Core &c, vm::VAddr va, vm::AccessType type)
{
    ++references;
    SASOS_OBS_EVENT(obs::EventKind::AccessBegin, account_.total().count(),
                    va.raw(), c.domain);
    const bool staleWindow = !c.inbox.empty();
    if (staleWindow) {
        ++staleWindowRefs;
        // This reference ran inside the window of every shootdown this
        // core has not yet acked.
        for (const auto &[op, due] : c.inbox) {
            auto it = std::find_if(inflight_.begin(), inflight_.end(),
                                   [&](const Shootdown &s) {
                                       return s.id == op->shootdownId;
                                   });
            if (it != inflight_.end())
                ++it->staleRefs;
        }
    }
    const os::AccessResult result = c.model->access(c.domain, va, type);
    const bool ok = result.completed ||
                    kernel_->resolveAndRetry(c.domain, va, type, result);
    if (!ok)
        ++failedReferences;
    SASOS_OBS_EVENT(obs::EventKind::AccessEnd, account_.total().count(),
                    va.raw(), ok);
    if (ok) {
        const vm::Access canonical =
            state_.effectiveRights(c.domain, vm::pageOf(va));
        if (!vm::includes(canonical, vm::requiredRight(type))) {
            if (staleWindow) {
                // The modeled race: the kernel revoked the right, this
                // core has not taken the IPI yet, its hardware still
                // granted the access (Section 4.1.3's window).
                ++staleGrants;
            } else {
                ++invariantViolations;
                std::ostringstream what;
                what << "core domain " << c.domain << " granted "
                     << vm::toString(vm::requiredRight(type)) << " at 0x"
                     << std::hex << va.raw() << std::dec
                     << " outside any stale window (canonical "
                     << vm::toString(canonical) << ")";
                noteViolation(what.str());
            }
        }
    }
    if (!staleWindow) {
        ++quiescentRefs;
        quiescentOutcomes_.push_back(ok ? 1 : 0);
    }
    if (config_.recordOutcomes)
        c.outcomes.push_back(ok ? 1 : 0);
    return ok;
}

void
McSystem::runTurn(unsigned ci)
{
    Core &c = cores_[ci];
    model_->setCurrent(ci);
    obs::setThreadId(config_.tidBase + ci);
    const u64 before = account_.total().count();
    for (u64 s = 0; s < config_.quantum; ++s) {
        deliverDue(c);
        if (c.barriers > 0 || c.script->done()) {
            if (c.inbox.empty())
                break;
            // Blocked (or out of work) with IPIs still in flight:
            // idle steps advance the step clock until one is due.
            ++c.stepsExecuted;
            continue;
        }
        const Step step = c.script->next();
        ++c.stepsExecuted;
        if (step.kind == StepKind::Ref) {
            if (issueRef(c, step.va, step.type))
                ++c.completed;
            else
                ++c.failed;
        } else {
            ++kernelOps;
            applyKernelStep(*kernel_, c.domain, step);
            if (c.barriers > 0) {
                // The op shot down remote cores; the issuer blocks on
                // the completion barrier for the rest of its quantum.
                break;
            }
        }
    }
    c.cycles += account_.total().count() - before;
    // The turn consumed script steps and drained due IPIs; re-derive
    // this core's eligibility once (remote transitions were refreshed
    // at their own mutation sites).
    refreshRunnable(ci);
}

McResult
McSystem::run(u64 max_slots)
{
    SASOS_ASSERT(!done_, "the machine already ran to completion");
    u64 executed = 0;
    while (true) {
        // Partial runs stop only at quiescent points: once the slot
        // budget is spent, keep scheduling until the last shootdown
        // acks so a snapshot taken here has no RemoteOp closures to
        // serialize -- and so a restored machine resumes exactly where
        // an uninterrupted one would be.
        if (executed >= max_slots && inflight_.empty())
            break;
        // The runnable set is maintained incrementally at each
        // inbox/barrier/script transition, so a slot costs O(active)
        // rather than an O(cores) rescan -- the difference between a
        // 4-core and a 1024-core machine late in a run, when most
        // scripts are exhausted. The scratch copy preserves the exact
        // ascending-index vector the rescan used to hand the schedule,
        // so interleavings are bit-identical to the old bookkeeping.
        if (runnable_.empty()) {
            done_ = true;
            break;
        }
        runnableScratch_.assign(runnable_.begin(), runnable_.end());
        ++slots;
        ++executed;
        runTurn(schedule_.pick(runnableScratch_));
    }
    obs::setThreadId(0);
    SASOS_ASSERT(inflight_.empty(), "run ended with shootdowns in flight");
    if (done_ && config_.checkInvariants)
        checkHwSubset();
    return buildResult();
}

McResult
McSystem::buildResult()
{
    McResult result;
    result.slots = slots.value();
    result.kernelOps = kernelOps.value();
    result.shootdowns = shootdowns.value();
    result.acks = acks.value();
    result.coalescedAcks = coalescedAcks.value();
    result.staleWindowRefs = staleWindowRefs.value();
    result.staleGrants = staleGrants.value();
    result.invariantViolations = invariantViolations.value();
    result.hwViolations = hwSubsetViolations.value();
    result.quiescentChecks = quiescentChecks.value();
    result.cycles = account_.total().count();
    result.shootdownLatencyMean = shootdownLatency.mean();
    result.shootdownLatencyMax = shootdownLatency.max();
    result.staleRefsPerShootdownMean = shootdownStaleRefs.mean();
    result.firstViolation = firstViolation_;
    result.quiescentOutcomes = quiescentOutcomes_;
    for (Core &c : cores_) {
        result.completed += c.completed;
        result.failed += c.failed;
        result.coreCycles.push_back(c.cycles);
        result.coreCompleted.push_back(c.completed);
        result.coreFailed.push_back(c.failed);
        if (config_.recordOutcomes)
            result.coreOutcomes.push_back(c.outcomes);
        c.completedStat->set(c.completed);
        c.failedStat->set(c.failed);
        c.cyclesStat->set(c.cycles);
    }
    return result;
}

void
McSystem::checkHwSubset()
{
    SASOS_ASSERT(inflight_.empty(),
                 "hw-subset check requires global quiescence");
    ++quiescentChecks;
    for (Core &c : cores_) {
        for (const auto &[first, pages] : segments_) {
            for (u64 p = 0; p < pages; ++p) {
                const vm::Vpn vpn = first + p;
                const vm::Access hw = c.model->cachedRights(c.domain, vpn);
                const vm::Access canonical =
                    state_.effectiveRights(c.domain, vpn);
                if (!vm::includes(canonical, hw)) {
                    ++hwSubsetViolations;
                    std::ostringstream what;
                    what << "domain " << c.domain << " hardware grants "
                         << vm::toString(hw) << " on page "
                         << vpn.number() << " but canonical is "
                         << vm::toString(canonical);
                    noteViolation(what.str());
                }
            }
        }
    }
}

void
McSystem::noteViolation(const std::string &what)
{
    if (firstViolation_.empty())
        firstViolation_ = what;
}

namespace
{

void
saveOutcomes(snap::SnapWriter &w, const std::vector<u8> &outcomes)
{
    w.put64(outcomes.size());
    for (u8 outcome : outcomes)
        w.put8(outcome);
}

void
loadOutcomes(snap::SnapReader &r, std::vector<u8> &outcomes)
{
    outcomes.clear();
    const u32 count = r.getCount(1);
    outcomes.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        const u8 outcome = r.get8();
        if (outcome > 1)
            SASOS_FATAL("corrupt snapshot: outcome byte ", u32(outcome));
        outcomes.push_back(outcome);
    }
}

/** The engine-level knobs a loadable image must agree on; the
 * SystemConfig signature covers the per-core machines. */
template <typename Sig>
void
walkMcSignature(Sig &&sig, const McConfig &config)
{
    sig.field("cores", config.cores);
    sig.field("scheduleSeed", config.scheduleSeed);
    sig.field("quantum", config.quantum);
    sig.field("ipiDelaySteps", config.ipiDelaySteps);
    sig.field("premap", config.premap ? 1 : 0);
    sig.field("checkInvariants", config.checkInvariants ? 1 : 0);
    sig.field("recordOutcomes", config.recordOutcomes ? 1 : 0);
    sig.field("tidBase", config.tidBase);
    const McWorkloadConfig &wl = config.workload;
    sig.field("wl.stepsPerCore", wl.stepsPerCore);
    sig.field("wl.sharedPages", wl.sharedPages);
    sig.field("wl.privatePages", wl.privatePages);
    sig.field("wl.sharedProbBits", std::bit_cast<u64>(wl.sharedProb));
    sig.field("wl.storeProbBits", std::bit_cast<u64>(wl.storeProb));
    sig.field("wl.churnProbBits", std::bit_cast<u64>(wl.churnProb));
    sig.field("wl.forkProbBits", std::bit_cast<u64>(wl.forkProb));
    sig.field("wl.privateChurn", wl.privateChurn ? 1 : 0);
    sig.field("wl.zipfThetaBits", std::bit_cast<u64>(wl.zipfTheta));
    sig.field("wl.seed", wl.seed);
    // Appended conditionally so pre-coalescing golden images (which
    // end at wl.seed) still load for uncoalesced runs, while any
    // coalesced/uncoalesced cross-load trips the field-name check.
    if (config.coalesceWindow != 0)
        sig.field("coalesceWindow", config.coalesceWindow);
}

struct McSignatureWriter
{
    snap::SnapWriter &w;

    void
    field(const std::string &name, u64 value)
    {
        w.putString(name);
        w.put64(value);
    }
};

struct McSignatureChecker
{
    snap::SnapReader &r;

    void
    field(const std::string &name, u64 value)
    {
        const std::string image_name = r.getString();
        if (image_name != name) {
            SASOS_FATAL("snapshot mismatch: expected engine field '", name,
                        "', image has '", image_name, "'");
        }
        const u64 image_value = r.get64();
        if (image_value != value) {
            SASOS_FATAL("snapshot mismatch: engine field '", name, "' is ",
                        value, " here but ", image_value, " in the image");
        }
    }
};

} // namespace

void
McSystem::save(snap::SnapWriter &w) const
{
    SASOS_ASSERT(inflight_.empty(),
                 "multi-core snapshots require quiescence; stop the "
                 "machine through run(max_slots)");
    w.putTag("mcsystem");
    walkMcSignature(McSignatureWriter{w}, config_);
    saveConfigSignature(w, config_.system);
    schedule_.save(w);
    w.put64(shootdownIds_);
    w.put32(model_->current());
    w.putBool(done_);
    state_.save(w);
    kernel_->save(w);
    account_.save(w);
    for (const Core &core : cores_) {
        SASOS_ASSERT(core.inbox.empty() && core.barriers == 0,
                     "core not quiescent at snapshot");
        w.putTag("core");
        core.model->save(w);
        core.script->save(w);
        w.put64(core.stepsExecuted);
        w.put64(core.completed);
        w.put64(core.failed);
        w.put64(core.cycles);
        saveOutcomes(w, core.outcomes);
    }
    saveOutcomes(w, quiescentOutcomes_);
    w.putString(firstViolation_);
    statsRoot_.save(w);
}

void
McSystem::load(snap::SnapReader &r)
{
    r.expectTag("mcsystem");
    walkMcSignature(McSignatureChecker{r}, config_);
    checkConfigSignature(r, config_.system);
    schedule_.load(r);
    shootdownIds_ = r.get64();
    const u32 current = r.get32();
    if (current >= cores_.size())
        SASOS_FATAL("corrupt snapshot: current core ", current, " of ",
                    cores_.size());
    model_->setCurrent(current);
    done_ = r.getBool();
    state_.load(r);
    kernel_->load(r);
    account_.load(r);
    for (Core &core : cores_) {
        r.expectTag("core");
        core.model->load(r);
        core.script->load(r);
        core.stepsExecuted = r.get64();
        core.completed = r.get64();
        core.failed = r.get64();
        core.cycles = r.get64();
        loadOutcomes(r, core.outcomes);
        core.inbox.clear();
        core.barriers = 0;
    }
    loadOutcomes(r, quiescentOutcomes_);
    firstViolation_ = r.getString();
    statsRoot_.load(r);
    inflight_.clear();
    runnable_.clear();
    for (unsigned i = 0; i < cores_.size(); ++i)
        refreshRunnable(i);
}

void
McSystem::dumpStats(std::ostream &os)
{
    statsRoot_.dump(os);
    account_.dump(os, "mc-system.");
}

void
McSystem::dumpStatsJson(std::ostream &os)
{
    obs::writeStatsJson(os, statsRoot_, &account_);
}

} // namespace sasos::core::mc
