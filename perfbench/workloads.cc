/**
 * @file
 * The four benchmark workloads.
 *
 * Each workload draws its inputs from a fixed pool whose simulated
 * outputs are pinned in golden.txt; the workload seed decides which
 * pool entries every round runs and in what order. A round is fixed
 * work: the sweeps run one cell of every (model, stream) pair, the
 * oracle every gate of four pool seeds.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/mc/explorer.hh"
#include "farm/campaign.hh"
#include "farm/wire.hh"
#include "fault/oracle.hh"
#include "perfbench.hh"
#include "scenario/oracle.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/trace.hh"

namespace perfbench
{

namespace
{

using namespace sasos;

/** The four protection models, in the order every table uses. */
const std::vector<std::pair<std::string, core::ModelKind>> &
models()
{
    static const std::vector<std::pair<std::string, core::ModelKind>> list =
        {{"plb", core::ModelKind::Plb},
         {"page-group", core::ModelKind::PageGroup},
         {"conventional", core::ModelKind::Conventional},
         {"pkey", core::ModelKind::Pkey}};
    return list;
}

farm::StreamFactory
streamFactory(const std::string &name)
{
    for (auto &[stream, factory] : farm::standardStreams()) {
        if (stream == name)
            return factory;
    }
    SASOS_FATAL("perfbench: unknown stream '", name, "'");
}

/** Rounds the seeded schedule covers before it wraps around. */
constexpr u64 kScheduleRounds = 4096;

/** The fault schedule every gate's injected runs use. */
fault::FaultConfig
gateFaults()
{
    fault::FaultConfig faults;
    faults.seed = 7;
    faults.rate = 0.02;
    faults.transientGap = 64;
    return faults;
}

/** Digest of everything deterministic a sweep cell produced. */
u64
cellDigest(const farm::CellResult &result)
{
    std::ostringstream os;
    os << result.statsDump << "|cycles=" << result.simCycles
       << "|completed=" << result.completed << "|failed=" << result.failed;
    return digest(os.str());
}

/** Pinned digest check; records a failure of `ops` ops on mismatch. */
void
checkDigest(const Golden &golden, const std::string &key, u64 got, u64 ops,
            Tally &tally)
{
    const auto it = golden.find(key);
    if (it == golden.end()) {
        tally.fail(ops, key + ": no pinned digest");
        return;
    }
    if (it->second != got) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(got));
        tally.fail(ops, key + ": digest " + buf + " differs from pinned");
    }
}

/** Append a prefix of a cell's own address stream to `trace`; adds
 * the time spent in the stream generator to `next_ns`. */
void
appendCellTrace(const farm::SweepCell &cell, u64 refs, VpnTrace &trace,
                double &next_ns)
{
    core::System sys(cell.config);
    const vm::VAddr base = farm::setupCell(sys, cell);
    Rng rng(cell.seed);
    std::unique_ptr<wl::AddressStream> stream =
        cell.makeStream(base, cell.pages, cell.seed);
    const std::size_t first = trace.addrs.size();
    trace.addrs.resize(first + refs);
    trace.stores.resize(first + refs, cell.type == vm::AccessType::Store);
    const auto t0 = Clock::now();
    for (u64 i = 0; i < refs; ++i)
        trace.addrs[first + i] = stream->next(rng).raw();
    next_ns += nanosBetween(t0, Clock::now());
}

/**
 * Per-call host time of the canonical VM tables over an address
 * sequence, on a system whose tables the sequence populated:
 * GlobalPageTable::lookup and ProtectionTable::effectiveRights.
 */
void
probeTables(core::System &sys, os::DomainId domain, const VpnTrace &trace,
            Metrics &out)
{
    const vm::GlobalPageTable &table = sys.state().pageTable;
    const vm::ProtectionTable &prot = sys.state().domain(domain).prot;
    const vm::SegmentTable &segments = sys.state().segments;
    u64 found = 0;
    auto t0 = Clock::now();
    for (const u64 addr : trace.addrs)
        found += table.lookup(vm::pageOf(vm::VAddr(addr))) != nullptr;
    auto t1 = Clock::now();
    u64 granted = 0;
    for (const u64 addr : trace.addrs) {
        granted += static_cast<u64>(
            prot.effectiveRights(vm::pageOf(vm::VAddr(addr)), segments));
    }
    auto t2 = Clock::now();
    const double n = static_cast<double>(trace.addrs.size());
    out["vm.pagetable.lookup_ns"] = {nanosBetween(t0, t1) / n, "ns"};
    out["vm.prot.effective_rights_ns"] = {nanosBetween(t1, t2) / n, "ns"};
    // Keep the loops' results observable.
    if (found + granted == ~u64{0})
        std::fputs("", stderr);
}

/**
 * sweep-scan and sweep-local: cells of every model x stream pair,
 * stepped in fixed-size System::run slices. One slice is one op.
 */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::string name, u64 pages,
                  std::vector<std::string> streams, u64 cell_refs,
                  u64 slice_refs, u64 pool_seeds, const Golden &golden)
        : name_(std::move(name)), pages_(pages),
          streams_(std::move(streams)), cellRefs_(cell_refs),
          sliceRefs_(slice_refs), poolSeeds_(pool_seeds), golden_(golden)
    {
    }

    void
    setup(u64 seed) override
    {
        buildPool();
        pairs_ = models().size() * streams_.size();
        // Every (pair, type) slot walks its own seeded permutation of
        // the pool, so any run length samples the pool evenly.
        Rng rng(seed);
        std::vector<std::vector<u64>> orders(pairs_ * 2);
        for (std::vector<u64> &order : orders) {
            for (u64 k = 0; k < poolSeeds_; ++k)
                order.push_back(k);
            rng.shuffle(order);
        }
        std::vector<u64> uses(pairs_ * 2, 0);
        schedule_.clear();
        schedule_.reserve(kScheduleRounds * pairs_);
        for (u64 r = 0; r < kScheduleRounds; ++r) {
            for (u64 pair = 0; pair < pairs_; ++pair) {
                const u64 slot = pair * 2 + (r + pair) % 2;
                schedule_.push_back(
                    slot * poolSeeds_ +
                    orders[slot][uses[slot]++ % poolSeeds_]);
            }
        }
        // The first round's systems are built here, as every sweep
        // builds its cells before it steps them.
        ready_.clear();
        for (u64 pair = 0; pair < pairs_; ++pair)
            ready_.push_back(startCell(schedule_[pair]));
    }

    void
    warmUp() override
    {
        Tally scratch;
        auto exec = startCell(schedule_.back());
        runOp(exec, pool_[schedule_.back()], scratch);
    }

    void
    round(u64 round, Tally &tally) override
    {
        const u64 r = round % kScheduleRounds;
        for (u64 pair = 0; pair < pairs_; ++pair) {
            const u64 index = schedule_[r * pairs_ + pair];
            std::unique_ptr<farm::CellExecution> exec;
            if (!ready_.empty() && r == 0) {
                exec = std::move(ready_[pair]);
            } else {
                exec = startCell(index);
            }
            u64 ops = 0;
            while (!exec->done()) {
                setCurrentOp(++opId_);
                const auto t0 = Clock::now();
                runOp(exec, pool_[index], tally);
                tally.addOp(index << 16 | ops,
                            nanosBetween(t0, Clock::now()) / 1e3);
                ++ops;
            }
            farm::CellResult result;
            {
                Span span("core.dump_stats");
                result = exec->finish();
            }
            tally.refs += result.completed;
            checkDigest(golden_, keys_[index], cellDigest(result), ops,
                        tally);
            if (tracing()) {
                addMisses(result.statsDump, result.references, misses_);
                tracedRefs_ += result.references;
            }
        }
        if (r == 0)
            ready_.clear();
    }

    void
    probeLayers(Metrics &out) override
    {
        reportMisses(misses_, out);
        // The first round's cells, replayed through standalone
        // structures; each cell contributes a prefix of its stream.
        // Generating them times the stream generators alone.
        const u64 per_cell = std::min<u64>(cellRefs_, 32768);
        VpnTrace trace;
        double next_ns = 0.0;
        for (u64 pair = 0; pair < pairs_; ++pair)
            appendCellTrace(pool_[schedule_[pair]], per_cell, trace, next_ns);
        probeHardware(trace, out);
        const double next_per_ref =
            next_ns / static_cast<double>(per_cell * pairs_);
        out["workload.next_ns"] = {next_per_ref, "ns"};
        const std::map<std::string, LayerTime> layers = layerTimes();
        if (tracedRefs_ > 0 && layers.count("core.run")) {
            const double run_ns = layers.at("core.run").totalNs /
                                  static_cast<double>(tracedRefs_);
            out["core.run_ns_per_ref"] = {run_ns, "ns"};
            out["core.run_self_ns_per_ref"] = {run_ns - next_per_ref, "ns"};
        }
        // The canonical tables, populated by the first (plb) cell and
        // probed with its own addresses, the trace's first per_cell.
        const farm::SweepCell &cell = pool_[schedule_[0]];
        core::System sys(cell.config);
        const vm::VAddr base = farm::setupCell(sys, cell);
        Rng rng(cell.seed);
        auto stream = cell.makeStream(base, cell.pages, cell.seed);
        sys.run(*stream, per_cell, rng, cell.type);
        trace.addrs.resize(per_cell);
        trace.stores.resize(per_cell);
        probeTables(sys, sys.kernel().currentDomain(), trace, out);
    }

    std::vector<std::pair<std::string, u64>>
    pin() override
    {
        buildPool();
        std::vector<std::pair<std::string, u64>> pins;
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            pins.emplace_back(keys_[i], cellDigest(farm::SweepRunner::runCell(
                                            pool_[i], 1)));
        }
        return pins;
    }

  protected:
    /** One op: a System::run slice. May replace the execution. */
    virtual void
    runOp(std::unique_ptr<farm::CellExecution> &exec,
          const farm::SweepCell &, Tally &)
    {
        Span span("core.run");
        exec->step(sliceRefs_);
    }

    /** Pool layout: ((model * streams + stream) * 2 + type) * seeds
     * + seed index; type 0 loads, 1 stores. */
    void
    buildPool()
    {
        pool_.clear();
        keys_.clear();
        for (const auto &[model, kind] : models()) {
            for (const std::string &stream : streams_) {
                for (int type = 0; type < 2; ++type) {
                    for (u64 k = 0; k < poolSeeds_; ++k) {
                        farm::SweepCell cell;
                        cell.id = pool_.size();
                        cell.model = model;
                        cell.workload = stream;
                        cell.seed = 1 + k;
                        cell.config = core::SystemConfig::forModel(kind);
                        cell.pages = pages_;
                        cell.references = cellRefs_;
                        cell.type = type ? vm::AccessType::Store
                                         : vm::AccessType::Load;
                        cell.makeStream = streamFactory(stream);
                        keys_.push_back(name_ + "/" + model + "/" + stream +
                                        (type ? "/store/" : "/load/") +
                                        std::to_string(cell.seed));
                        pool_.push_back(std::move(cell));
                    }
                }
            }
        }
    }

    std::unique_ptr<farm::CellExecution>
    startCell(u64 index)
    {
        Span span("core.cell_setup");
        return std::make_unique<farm::CellExecution>(
            pool_[index], static_cast<u32>(index) + 1);
    }

    std::string name_;
    u64 pages_;
    std::vector<std::string> streams_;
    u64 cellRefs_;
    u64 sliceRefs_;
    u64 poolSeeds_;
    const Golden &golden_;

    std::vector<farm::SweepCell> pool_;
    std::vector<std::string> keys_;
    u64 pairs_ = 0;
    std::vector<u64> schedule_;
    std::vector<std::unique_ptr<farm::CellExecution>> ready_;
    u64 opId_ = 0;
    MissCounts misses_;
    u64 tracedRefs_ = 0;
};

/**
 * checkpoint: sweep cells stepped in slices, each slice followed by
 * the farm migrate path without processes -- checkpoint, seal into an
 * Image frame, reassemble from pipe-sized chunks, decode, and resume
 * into a fresh CellExecution. One slice plus its round trip is one
 * op; the final cell must equal its straight run.
 */
class CheckpointWorkload : public SweepWorkload
{
  public:
    using SweepWorkload::SweepWorkload;

    void
    probeLayers(Metrics &out) override
    {
        SweepWorkload::probeLayers(out);
        if (images_ > 0) {
            out["snap.image_kb"] = {
                static_cast<double>(imageBytes_) / 1024.0 /
                    static_cast<double>(images_),
                "KiB"};
        }
    }

  private:
    /** One slice, then a full migrate; the cell finishes on the
     * execution its last slice was resumed into, and must equal the
     * straight run pinned for it. */
    void
    runOp(std::unique_ptr<farm::CellExecution> &exec,
          const farm::SweepCell &cell, Tally &tally) override
    {
        Span op("checkpoint.op");
        {
            Span span("core.run");
            exec->step(sliceRefs_);
        }

        farm::Message message;
        message.kind = farm::MsgKind::Image;
        message.cell = cell.id;
        message.refsDone = exec->refsDone();
        message.completed = exec->completed();
        message.failed = exec->failed();
        {
            Span span("snap.save");
            message.image = exec->checkpoint().bytes;
        }
        if (tracing()) {
            imageBytes_ += message.image.size();
            ++images_;
        }
        std::vector<u8> frame;
        {
            Span span("farm.encode");
            frame = farm::encodeMessage(message);
        }
        std::vector<u8> whole;
        int got = 0;
        {
            // Feed the frame in pipe-buffer-sized chunks, as a
            // coordinator reading a worker pipe would.
            Span span("farm.reassemble");
            farm::FrameBuffer buffer;
            constexpr std::size_t kChunk = 64 * 1024;
            for (std::size_t at = 0; at < frame.size(); at += kChunk) {
                buffer.feed(frame.data() + at,
                            std::min(kChunk, frame.size() - at));
            }
            got = buffer.next(whole);
        }
        if (got != 1) {
            tally.fail(1, "frame did not reassemble");
            return;
        }
        farm::Message decoded;
        {
            Span span("farm.decode");
            decoded = farm::decodeMessage(whole);
        }
        if (decoded.kind != farm::MsgKind::Image ||
            decoded.cell != cell.id ||
            decoded.refsDone != message.refsDone ||
            decoded.image != message.image) {
            tally.fail(1, "decoded Image frame differs from the sent one");
            return;
        }
        std::unique_ptr<farm::CellExecution> fresh;
        {
            Span span("core.cell_setup");
            fresh = std::make_unique<farm::CellExecution>(
                cell, static_cast<u32>(cell.id) + 1,
                farm::CellExecution::kForRestore);
        }
        {
            Span span("snap.restore");
            snap::Snapshot image;
            image.bytes = std::move(decoded.image);
            fresh->resume(image, decoded.refsDone, decoded.completed,
                          decoded.failed);
        }
        exec = std::move(fresh);
    }

    u64 imageBytes_ = 0;
    u64 images_ = 0;
};

/**
 * Gate sizes. The standard scenario scripts are fixed at 20-30 ms per
 * oracle call on a 4-vCPU VM; the campaign (4000 refs, as fault_test
 * runs it) and the explorer (4 cores x 200 steps, as scenario_test
 * runs it) take sizes the repo already uses that land within 2x of
 * that, so no gate kind dominates a round.
 */
constexpr u64 kCampaignRefs = 4000;

/** The McSystem churn workload the cross-model explorer runs. */
core::mc::McConfig
explorerBase()
{
    core::mc::McConfig config;
    config.system = core::SystemConfig::forModel(core::ModelKind::Plb);
    config.cores = 4;
    config.workload.stepsPerCore = 200;
    config.workload.churnProb = 0.15;
    config.workload.seed = 11;
    return config;
}

/** Fold a byte vector into a text digest stream. */
void
putBytes(std::ostringstream &os, const std::vector<u8> &bytes)
{
    os << digest(std::string(bytes.begin(), bytes.end())) << ",";
}

/**
 * oracle: the three differential gates -- fault campaigns, scenario-
 * oracle scripts and cross-model schedule explorations. Each gate call
 * is one op and must pass with its pinned digest.
 */
class OracleWorkload : public Workload
{
  public:
    OracleWorkload(const Golden &golden, std::string scratch)
        : golden_(golden), tracePath_(std::move(scratch) + "/campaign.trc")
    {
    }

    void
    setup(u64 seed) override
    {
        scripts_.clear();
        {
            Span span("scenario.build");
            for (u64 k = 0; k < kPoolSeeds; ++k)
                scripts_.push_back(scn::standardScripts(1 + k));
        }
        // Every cycle of rounds covers the whole pool once: the pool
        // seeds in a seeded order, kSeedsPerRound of them per round,
        // each round every gate of its seeds (a campaign, the scenario
        // scripts, an explorer) in a seeded order. So all rounds hold
        // the same mix of gate kinds.
        Rng rng(seed);
        rounds_.clear();
        for (u64 cycle = 0; cycle < kCycles; ++cycle) {
            std::vector<u64> seeds;
            for (u64 k = 0; k < kPoolSeeds; ++k)
                seeds.push_back(k);
            rng.shuffle(seeds);
            for (u64 at = 0; at < kPoolSeeds; at += kSeedsPerRound) {
                std::vector<Gate> round;
                for (u64 i = at; i < at + kSeedsPerRound; ++i)
                    gatesOf(seeds[i], round);
                rng.shuffle(round);
                rounds_.push_back(std::move(round));
            }
        }
    }

    void
    warmUp() override
    {
        Tally scratch;
        runGate(rounds_.back().back(), scratch);
    }

    void
    round(u64 round, Tally &tally) override
    {
        for (const Gate &gate : rounds_[round % rounds_.size()]) {
            setCurrentOp(++opId_);
            const auto t0 = Clock::now();
            runGate(gate, tally);
            tally.addOp(gate.poolSeed << 16 |
                            static_cast<u64>(gate.kind) << 8 | gate.script,
                        nanosBetween(t0, Clock::now()) / 1e3);
        }
    }

    void
    probeLayers(Metrics &out) override
    {
        probeCampaignTrace(out);
        probeScenarioOps(out);
    }

    std::vector<std::pair<std::string, u64>>
    pin() override
    {
        if (scripts_.empty())
            setup(1);
        std::vector<std::pair<std::string, u64>> pins;
        for (const Gate &gate : allGates()) {
            Tally tally;
            const u64 d = runGate(gate, tally, true);
            if (tally.failed)
                SASOS_FATAL("perfbench: gate ", keyOf(gate),
                            " fails at pin time: ", tally.firstFailure);
            pins.emplace_back(keyOf(gate), d);
        }
        return pins;
    }

  private:
    static constexpr u64 kPoolSeeds = 16;
    static constexpr u64 kSeedsPerRound = 4;
    /** Seeded passes over the pool; rounds cycle through them. */
    static constexpr u64 kCycles = 64;
    static constexpr int kCampaign = 0;
    static constexpr int kScenario = 1;
    static constexpr int kExplorer = 2;

    struct Gate
    {
        int kind = kCampaign;
        u64 poolSeed = 0;
        u64 script = 0;
    };

    /** Append every gate call of pool seed `k`. */
    void
    gatesOf(u64 k, std::vector<Gate> &gates) const
    {
        for (int kind = 0; kind < 3; ++kind) {
            const u64 scripts = kind == kScenario ? scripts_[k].size() : 1;
            for (u64 script = 0; script < scripts; ++script)
                gates.push_back(Gate{kind, k, script});
        }
    }

    /** The pool: every gate call the workload can make. */
    std::vector<Gate>
    allGates() const
    {
        std::vector<Gate> gates;
        for (u64 k = 0; k < kPoolSeeds; ++k)
            gatesOf(k, gates);
        return gates;
    }

    static std::string
    keyOf(const Gate &gate)
    {
        switch (gate.kind) {
          case kCampaign:
            return "oracle/campaign/" + std::to_string(1 + gate.poolSeed);
          case kScenario:
            return "oracle/scenario/" + std::to_string(1 + gate.poolSeed) +
                   "/" + std::to_string(gate.script);
          default:
            return "oracle/mc/" + std::to_string(1 + gate.poolSeed);
        }
    }

    static fault::CampaignConfig
    campaignConfig(u64 pool_seed)
    {
        fault::CampaignConfig config;
        config.scenarioSeed = 1 + pool_seed;
        config.references = kCampaignRefs;
        config.faults = gateFaults();
        return config;
    }

    /** Run one gate, check its verdict and digest; returns the digest. */
    u64
    runGate(const Gate &gate, Tally &tally, bool pinning = false)
    {
        std::ostringstream os;
        bool passed = false;
        std::string why;
        switch (gate.kind) {
          case kCampaign: {
            fault::CampaignResult result;
            {
                Span span("fault.campaign");
                result = fault::runCampaign(campaignConfig(gate.poolSeed),
                                            tracePath_);
            }
            passed = result.passed;
            if (!passed)
                why = result.violations.front();
            for (const fault::RunOutcome &run : result.runs) {
                tally.refs += run.completed + run.failed;
                os << run.model << run.injected << ":" << run.simCycles
                   << "," << run.completed << "," << run.failed << ","
                   << run.protectionFaults << "," << run.injectedEvents
                   << "," << run.rightsSnapshot << ",";
                putBytes(os, run.decisions);
            }
            break;
          }
          case kScenario: {
            const scn::Script &script =
                scripts_[gate.poolSeed][gate.script];
            scn::ScenarioVerdict verdict;
            {
                Span span("scenario.oracle");
                verdict = scn::runScenarioOracle(script, gateFaults());
            }
            passed = verdict.passed;
            if (!passed)
                why = verdict.violations.front();
            for (const scn::ScenarioRun &run : verdict.runs) {
                tally.refs += run.stats.refs;
                os << run.model << run.injected << ":" << run.simCycles
                   << "," << run.stats.allowed << "," << run.stats.denied
                   << "," << run.cowFaults << "," << run.injectedEvents
                   << "," << run.rightsSnapshot << ",";
                putBytes(os, run.decisions);
            }
            break;
          }
          default: {
            core::mc::ExplorerConfig config;
            config.base = explorerBase();
            config.seeds = 1;
            config.firstSeed = 1 + gate.poolSeed;
            config.threads = 1;
            core::mc::CrossModelResult result;
            {
                Span span("mc.explore");
                result = core::mc::exploreCrossModel(config);
            }
            passed = result.passed();
            if (!passed)
                why = "explorer: " + std::to_string(result.disagreements) +
                      " disagreements, " +
                      std::to_string(result.totalViolations) +
                      " violations " + result.firstViolation;
            for (const core::mc::CrossModelRun &run : result.runs) {
                for (const core::mc::RunSummary &model : run.byModel) {
                    tally.refs += model.completed + model.failed;
                    os << model.cycles << "," << model.completed << ","
                       << model.failed << "," << model.shootdowns << ","
                       << model.staleGrants << ",";
                    putBytes(os, model.quiescentOutcomes);
                }
            }
            break;
          }
        }
        const u64 d = digest(os.str());
        if (!passed)
            tally.fail(1, keyOf(gate) + ": " + why);
        else if (!pinning)
            checkDigest(golden_, keyOf(gate), d, 1, tally);
        return d;
    }

    /**
     * Replay one campaign trace with and without the fault injector
     * (trace::replay), and probe the canonical tables and hw
     * structures over its addresses.
     */
    void
    probeCampaignTrace(Metrics &out)
    {
        const fault::CampaignConfig config = campaignConfig(0);
        fault::runCampaign(config, tracePath_);

        VpnTrace trace;
        {
            trace::TraceReader reader(tracePath_);
            trace::TraceRecord record;
            while (reader.next(record)) {
                if (record.op == trace::TraceOp::Switch)
                    continue;
                trace.addrs.push_back(record.addr);
                trace.stores.push_back(record.op == trace::TraceOp::Store);
            }
        }
        probeHardware(trace, out);
        probePurges(trace, out);

        // The campaign's layout (same creation order), every segment
        // attached to every domain so no reference is refused.
        auto replayOnce = [&](bool injected, double &ns, u64 &records,
                              MissCounts *misses,
                              Metrics *tables) {
            core::SystemConfig sc =
                core::SystemConfig::forModel(core::ModelKind::Plb);
            sc.faults = config.faults;
            sc.faults.enabled = injected;
            core::System sys(sc);
            std::map<u16, os::DomainId> domains;
            for (u32 d = 0; d < config.domains; ++d) {
                domains[static_cast<u16>(d)] =
                    sys.kernel().createDomain("dom" + std::to_string(d));
            }
            std::vector<vm::SegmentId> segs;
            for (u32 s = 0; s < config.segments; ++s) {
                segs.push_back(sys.kernel().createSegment(
                    "seg" + std::to_string(s), config.pagesPerSegment));
            }
            for (const auto &[index, domain] : domains) {
                for (const vm::SegmentId seg : segs)
                    sys.kernel().attach(domain, seg, vm::Access::All);
            }
            sys.kernel().switchTo(domains.at(0));
            trace::TraceReader reader(tracePath_);
            const auto t0 = Clock::now();
            trace::ReplayResult result;
            {
                Span span("trace.replay");
                result = trace::replay(sys, reader, domains);
            }
            ns = nanosBetween(t0, Clock::now());
            records = result.records;
            if (misses) {
                std::ostringstream dump;
                sys.dumpStats(dump);
                addMisses(dump.str(), result.references, *misses);
            }
            if (tables)
                probeTables(sys, domains.at(0), trace, *tables);
        };

        std::vector<double> clean_ns, injected_ns;
        u64 records = 0;
        MissCounts misses;
        for (int rep = 0; rep < 5; ++rep) {
            double ns = 0.0;
            replayOnce(false, ns, records, rep == 0 ? &misses : nullptr,
                       rep == 0 ? &out : nullptr);
            clean_ns.push_back(ns);
            replayOnce(true, ns, records, nullptr, nullptr);
            injected_ns.push_back(ns);
        }
        std::sort(clean_ns.begin(), clean_ns.end());
        std::sort(injected_ns.begin(), injected_ns.end());
        const double clean = clean_ns[clean_ns.size() / 2];
        const double injected = injected_ns[injected_ns.size() / 2];
        out["trace.replay_ns_per_record"] = {
            clean / static_cast<double>(records), "ns"};
        out["fault.injected_over_clean"] = {injected / clean, "ratio"};
        reportMisses(misses, out);
    }

    /** Time scn::applyOp by OpKind over one script set on every model. */
    void
    probeScenarioOps(Metrics &out)
    {
        struct Bucket
        {
            double ns = 0.0;
            u64 calls = 0;
        };
        std::map<std::string, Bucket> buckets;
        auto bucketOf = [](scn::OpKind kind) -> const char * {
            switch (kind) {
              case scn::OpKind::Ref:
                return "scenario.ref_ns";
              case scn::OpKind::Switch:
                return "os.kernel.switch_us";
              case scn::OpKind::Attach:
                return "os.kernel.attach_us";
              case scn::OpKind::Detach:
                return "os.kernel.detach_us";
              case scn::OpKind::SetPageRights:
              case scn::OpKind::RestrictPage:
              case scn::OpKind::UnrestrictPage:
                return "os.kernel.page_rights_us";
              case scn::OpKind::ForkCow:
                return "os.kernel.fork_cow_us";
              default:
                return nullptr;
            }
        };
        auto timedApply = [&](core::System &sys, const scn::Op &op,
                              std::size_t index) {
            const auto t0 = Clock::now();
            scn::applyOp(sys, op, index);
            const double ns = nanosBetween(t0, Clock::now());
            if (const char *name = bucketOf(op.kind)) {
                buckets[name].ns += ns;
                ++buckets[name].calls;
            }
        };
        for (const scn::Script &script : scripts_[0]) {
            for (const auto &[model, kind] : models()) {
                core::System sys(core::SystemConfig::forModel(kind));
                Span span("scenario.replay");
                for (std::size_t i = 0; i < script.ops.size(); ++i)
                    timedApply(sys, script.ops[i], i);
                // The standard scripts never detach: end each replay by
                // detaching every attachment it left behind.
                std::vector<scn::Op> detaches;
                for (const auto &[id, domain] : sys.state().domains()) {
                    for (const vm::SegmentId seg :
                         domain.prot.attachedSegmentIds()) {
                        scn::Op op;
                        op.kind = scn::OpKind::Detach;
                        op.domain = id;
                        op.seg = seg;
                        detaches.push_back(op);
                    }
                }
                for (const scn::Op &op : detaches)
                    timedApply(sys, op, script.ops.size());
            }
        }
        for (const auto &[name, bucket] : buckets) {
            const bool ns = std::string(name).ends_with("_ns");
            out[name] = {bucket.ns / static_cast<double>(bucket.calls) /
                             (ns ? 1.0 : 1e3),
                         ns ? "ns" : "us"};
        }
    }

    const Golden &golden_;
    std::string tracePath_;
    std::vector<std::vector<scn::Script>> scripts_;
    std::vector<std::vector<Gate>> rounds_;
    u64 opId_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-scan", "sweep-local", "oracle", "checkpoint"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Golden &golden,
             const std::string &scratch)
{
    if (name == "sweep-scan")
        return std::make_unique<SweepWorkload>(
            name, 4096, std::vector<std::string>{"uniform", "zipf"}, 32768,
            512, 8, golden);
    if (name == "sweep-local")
        return std::make_unique<SweepWorkload>(
            name, 256, std::vector<std::string>{"sequential", "working-set"},
            131072, 2048, 4, golden);
    if (name == "checkpoint")
        return std::make_unique<CheckpointWorkload>(
            name, 256, std::vector<std::string>{"zipf", "working-set"},
            32768, 8192, 2, golden);
    if (name == "oracle")
        return std::make_unique<OracleWorkload>(golden, scratch);
    return nullptr;
}

} // namespace perfbench
