/**
 * @file
 * Tests for the parallel sweep engine and the reference loop:
 * parallelFor runs every index exactly once, a sweep's simulated
 * results are bit-identical whatever the thread count, and System::run
 * with the models' same-page memo live charges exactly the cycles and
 * stats of memo-free per-call access().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cached_entry.hh"
#include "sim/parallel.hh"
#include "farm/campaign.hh"
#include "obs/tracer.hh"
#include "snap/snapio.hh"
#include "workload/address_stream.hh"

using namespace sasos;

TEST(ParallelForTest, RunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {0u, 1u, 2u, 4u, 7u}) {
        for (u64 n : {u64{0}, u64{1}, u64{3}, u64{64}}) {
            std::vector<std::atomic<int>> hits(n);
            parallelFor(threads, n, [&](u64 i) { ++hits[i]; });
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads
                                             << " n=" << n << " i=" << i;
        }
    }
}

TEST(ParallelForTest, OneThreadRunsOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(8);
    parallelFor(1, ran.size(), [&](u64 i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : ran)
        EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, NeverStartsMoreWorkersThanThreadsOrIndices)
{
    for (unsigned threads : {2u, 4u, 7u}) {
        for (u64 n : {u64{3}, u64{64}}) {
            std::mutex mutex;
            std::set<std::thread::id> ids;
            parallelFor(threads, n, [&](u64) {
                std::lock_guard<std::mutex> lock(mutex);
                ids.insert(std::this_thread::get_id());
            });
            EXPECT_LE(ids.size(), std::min<u64>(threads, n))
                << "threads=" << threads << " n=" << n;
        }
    }
}

TEST(ParallelForTest, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(defaultThreads(), 1u);
}

TEST(OptionsTest, ThreadsKeyDefaultsToHardwareConcurrency)
{
    Options options;
    EXPECT_EQ(options.threads(), defaultThreads());
    options.set("threads", "3");
    EXPECT_EQ(options.threads(), 3u);
}

TEST(BenchCommonTest, NormalizedGuardsNonFiniteRatios)
{
    EXPECT_EQ(bench::normalized(5.0, 0.0), "-");
    EXPECT_EQ(bench::normalized(std::numeric_limits<double>::quiet_NaN(),
                                2.0),
              "-");
    EXPECT_EQ(bench::normalized(std::numeric_limits<double>::infinity(),
                                2.0),
              "-");
    EXPECT_EQ(bench::normalized(2.0, 1.0), TextTable::ratio(2.0, 2));
}

namespace
{

/** The acceptance sweep: 3 models x 4 seeds, one zipf stream each. */
std::vector<farm::SweepCell>
testCells()
{
    Options options;
    std::vector<farm::SweepCell> cells;
    for (const auto &model : bench::standardModels(options)) {
        for (u64 seed = 1; seed <= 4; ++seed) {
            farm::SweepCell cell;
            cell.model = model.label;
            cell.workload = "zipf";
            cell.seed = seed;
            cell.config = model.config;
            cell.pages = 64;
            cell.references = 20'000;
            cell.makeStream = [](vm::VAddr base, u64 pages, u64 seed_) {
                return std::make_unique<wl::ZipfPageStream>(base, pages,
                                                            0.8, seed_);
            };
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

} // namespace

TEST(SweepRunnerTest, ParallelSweepIsBitIdenticalToSerial)
{
    const auto cells = testCells();
    const auto serial = farm::SweepRunner(1).run(cells);
    const auto parallel = farm::SweepRunner(4).run(cells);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(serial[i].model, parallel[i].model) << "cell " << i;
        EXPECT_EQ(serial[i].seed, parallel[i].seed) << "cell " << i;
        EXPECT_EQ(serial[i].simCycles, parallel[i].simCycles)
            << "cell " << i;
        EXPECT_EQ(serial[i].completed, parallel[i].completed)
            << "cell " << i;
        EXPECT_EQ(serial[i].failed, parallel[i].failed) << "cell " << i;
        // The whole stats tree, byte for byte.
        EXPECT_EQ(serial[i].statsDump, parallel[i].statsDump)
            << "cell " << i;
    }
}

TEST(SweepRunnerTest, DistinctSeedsProduceDistinctStreams)
{
    const auto cells = testCells();
    const auto results = farm::SweepRunner(1).run(cells);
    // Same model, different seed: the zipf page shuffle differs, so
    // the simulated cycle totals should too (equality would suggest
    // the seed is ignored).
    EXPECT_NE(results[0].simCycles, results[1].simCycles);
}

namespace
{

/** The reference side of every run-vs-per-call twin: each reference
 * goes through System::access with the model's same-page memo dropped
 * first. The run side keeps the memo live across references, so a
 * memo hit that counts, touches or grants differently from the probe
 * it replaces, or a memo that outlives a structure change, shows up as
 * a difference between the twins. */
bool
accessWithoutMemo(core::System &sys, vm::VAddr va, vm::AccessType type)
{
    sys.model().dropMemo();
    return sys.access(va, type);
}

std::string
dumpOf(core::System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** The memory-path events `issue()` emits, from a fresh session. */
template <typename Issue>
std::vector<obs::Event>
eventsOf(Issue &&issue)
{
    obs::startTracing({.bufferEvents = u64{1} << 19});
    issue();
    const u64 dropped = obs::droppedEvents();
    std::vector<obs::Event> events = obs::stopTracing();
    EXPECT_EQ(dropped, 0u);
    return events;
}

/** Both twins' traces must agree event for event. Totals alone can
 * balance out: a stale memo hit standing in for a probe miss only
 * moves that miss to the page's next reference when the structure
 * has room for the whole heap, yet it changes the trace at once. */
void
expectSameEvents(const std::vector<obs::Event> &run,
                 const std::vector<obs::Event> &per_call)
{
    const std::size_t n = std::min(run.size(), per_call.size());
    for (std::size_t i = 0; i < n; ++i) {
        const obs::Event &a = run[i];
        const obs::Event &b = per_call[i];
        if (a.kind != b.kind || a.cycle != b.cycle || a.addr != b.addr ||
            a.arg != b.arg) {
            ADD_FAILURE() << "first differing event #" << i << ": run "
                          << obs::toString(a.kind) << " @" << a.cycle
                          << " addr " << a.addr << ", per-call "
                          << obs::toString(b.kind) << " @" << b.cycle
                          << " addr " << b.addr;
            return;
        }
    }
    EXPECT_EQ(run.size(), per_call.size());
}

/** The PLB model with its entries split over four banks. */
core::SystemConfig
clusteredPlbConfig()
{
    core::SystemConfig config =
        core::SystemConfig::forModel(core::ModelKind::Plb);
    config.plb.clusters = 4;
    return config;
}

struct TwinSystems
{
    explicit TwinSystems(const core::SystemConfig &config, u64 pages = 64)
        : perCall(config), viaRun(config)
    {
        setUp(perCall, pages);
        setUp(viaRun, pages);
    }

    explicit TwinSystems(core::ModelKind kind)
        : TwinSystems(core::SystemConfig::forModel(kind))
    {
    }

    void
    setUp(core::System &sys, u64 pages)
    {
        const os::DomainId app = sys.kernel().createDomain("app");
        const vm::SegmentId seg = sys.kernel().createSegment("heap", pages);
        sys.kernel().attach(app, seg, vm::Access::ReadWrite);
        sys.kernel().switchTo(app);
        base = sys.state().segments.find(seg)->base();
        heap = seg;
    }

    core::System perCall;
    core::System viaRun;
    vm::VAddr base;
    vm::SegmentId heap = 0;
};

/** Zipf loads over a cold 64-page heap (demand-map translation faults
 * included) through both twins: bit-identical stats and traces. */
void
expectZipfTwinsMatch(TwinSystems &twins, u64 refs, u64 seed)
{
    wl::ZipfPageStream stream_a(twins.base, 64, 0.8, seed);
    wl::ZipfPageStream stream_b(twins.base, 64, 0.8, seed);
    Rng rng_a(seed);
    Rng rng_b(seed);

    u64 completed_per_call = 0;
    const auto per_call_events = eventsOf([&] {
        for (u64 i = 0; i < refs; ++i) {
            completed_per_call += accessWithoutMemo(
                twins.perCall, stream_a.next(rng_a), vm::AccessType::Load);
        }
    });
    core::RunResult result;
    const auto run_events = eventsOf([&] {
        result =
            twins.viaRun.run(stream_b, refs, rng_b, vm::AccessType::Load);
    });

    expectSameEvents(run_events, per_call_events);
    EXPECT_EQ(result.completed, completed_per_call);
    EXPECT_EQ(result.completed + result.failed, refs);
    EXPECT_EQ(twins.viaRun.cycles().count(),
              twins.perCall.cycles().count());
    EXPECT_EQ(twins.viaRun.references.value(),
              twins.perCall.references.value());
    EXPECT_EQ(twins.viaRun.failedReferences.value(),
              twins.perCall.failedReferences.value());
    EXPECT_EQ(dumpOf(twins.viaRun), dumpOf(twins.perCall));
}

/** The zipf twins with the fault injector armed (5% of references
 * perturbed: evictions, flushes, delayed fills, transient faults), so
 * perturbations land on a live memo. */
void
expectInjectedTwinsMatch(core::SystemConfig config)
{
    config.faults.enabled = true;
    config.faults.seed = 99;
    config.faults.rate = 0.05;
    TwinSystems twins(config);
    expectZipfTwinsMatch(twins, 20'000, 5);
}

} // namespace

class BatchedRunTest : public ::testing::TestWithParam<core::ModelKind>
{
};

TEST_P(BatchedRunTest, MatchesPerCallAccessCycleForCycle)
{
    TwinSystems twins(GetParam());
    expectZipfTwinsMatch(twins, 30'000, 11);
}

TEST_P(BatchedRunTest, MatchesPerCallOnEveryStandardStream)
{
    // The sweep's stream recipes over a 256-page heap: System::run and
    // memo-free per-call access() must leave the same stats dump and
    // cycle account, stream for stream.
    constexpr u64 kPages = 256;
    constexpr u64 kRefs = 20'000;
    constexpr u64 kSeed = 7;
    for (const auto &[name, factory] : farm::standardStreams()) {
        TwinSystems twins(core::SystemConfig::forModel(GetParam()), kPages);
        auto per_call_stream = factory(twins.base, kPages, kSeed);
        auto run_stream = factory(twins.base, kPages, kSeed);
        Rng rng_a(kSeed);
        Rng rng_b(kSeed);
        for (u64 i = 0; i < kRefs; ++i) {
            accessWithoutMemo(twins.perCall, per_call_stream->next(rng_a),
                              vm::AccessType::Load);
        }
        twins.viaRun.run(*run_stream, kRefs, rng_b);
        EXPECT_EQ(dumpOf(twins.viaRun), dumpOf(twins.perCall)) << name;
    }
}

TEST_P(BatchedRunTest, MatchesPerCallWhenReferencesFail)
{
    // Read-only heap + stores: every reference protection-faults and,
    // with no segment server, becomes an exception; both sides must
    // count failures the same.
    core::System per_call(core::SystemConfig::forModel(GetParam()));
    core::System via_run(core::SystemConfig::forModel(GetParam()));
    vm::VAddr base;
    for (core::System *sys : {&per_call, &via_run}) {
        const os::DomainId app = sys->kernel().createDomain("app");
        const vm::SegmentId seg = sys->kernel().createSegment("ro", 8);
        sys->kernel().attach(app, seg, vm::Access::Read);
        sys->kernel().switchTo(app);
        base = sys->state().segments.find(seg)->base();
    }
    constexpr u64 kRefs = 64;
    wl::SequentialStream stream_a(base, 8 * vm::kPageBytes, 64);
    wl::SequentialStream stream_b(base, 8 * vm::kPageBytes, 64);
    Rng rng_a(3);
    Rng rng_b(3);
    for (u64 i = 0; i < kRefs; ++i) {
        accessWithoutMemo(per_call, stream_a.next(rng_a),
                          vm::AccessType::Store);
    }
    const core::RunResult result =
        via_run.run(stream_b, kRefs, rng_b, vm::AccessType::Store);
    EXPECT_EQ(result.failed, kRefs);
    EXPECT_EQ(via_run.cycles().count(), per_call.cycles().count());
    EXPECT_EQ(via_run.failedReferences.value(),
              per_call.failedReferences.value());
}

namespace
{

/** Replays a fixed address list (wrapping), so a test can plant a
 * faulting reference at an exact position. */
class VectorStream : public wl::AddressStream
{
  public:
    explicit VectorStream(std::vector<vm::VAddr> vas)
        : vas_(std::move(vas))
    {
    }

    vm::VAddr
    next(Rng &) override
    {
        const vm::VAddr va = vas_[pos_ % vas_.size()];
        ++pos_;
        return va;
    }

  private:
    std::vector<vm::VAddr> vas_;
    std::size_t pos_ = 0;
};

/** Drive `vas` through both twins -- memo-free per-call on one,
 * System::run on the other -- and require bit-identical stats and
 * traces. */
void
expectTwinsMatch(TwinSystems &twins, const std::vector<vm::VAddr> &vas,
                 vm::AccessType type)
{
    u64 completed_per_call = 0;
    const auto per_call_events = eventsOf([&] {
        for (const vm::VAddr va : vas)
            completed_per_call += accessWithoutMemo(twins.perCall, va, type);
    });
    VectorStream stream(vas);
    Rng rng(1);
    core::RunResult result;
    const auto run_events = eventsOf(
        [&] { result = twins.viaRun.run(stream, vas.size(), rng, type); });
    expectSameEvents(run_events, per_call_events);
    EXPECT_EQ(result.completed, completed_per_call);
    EXPECT_EQ(twins.viaRun.cycles().count(),
              twins.perCall.cycles().count());
    EXPECT_EQ(dumpOf(twins.viaRun), dumpOf(twins.perCall));
}

} // namespace

TEST_P(BatchedRunTest, MatchesPerCallWithFaultAtChunkBoundaries)
{
    // A failing store into a read-only page interrupts a warm
    // same-page run at the first, the 511th and the 512th reference
    // of a 1024-reference stream over 16 heap pages. The fault's
    // excursion through the kernel must leave both twins identical,
    // and the run side must resume with the memo still correct.
    for (const u64 fault_at : {u64{0}, u64{511}, u64{512}}) {
        core::System per_call(core::SystemConfig::forModel(GetParam()));
        core::System via_run(core::SystemConfig::forModel(GetParam()));
        vm::VAddr heap{};
        vm::VAddr ro{};
        for (core::System *sys : {&per_call, &via_run}) {
            const os::DomainId app = sys->kernel().createDomain("app");
            const vm::SegmentId heap_seg =
                sys->kernel().createSegment("heap", 16);
            const vm::SegmentId ro_seg =
                sys->kernel().createSegment("ro", 4);
            sys->kernel().attach(app, heap_seg, vm::Access::ReadWrite);
            sys->kernel().attach(app, ro_seg, vm::Access::Read);
            sys->kernel().switchTo(app);
            heap = sys->state().segments.find(heap_seg)->base();
            ro = sys->state().segments.find(ro_seg)->base();
        }
        constexpr u64 kRefs = 1024;
        std::vector<vm::VAddr> vas;
        for (u64 i = 0; i < kRefs; ++i)
            vas.push_back(heap + (i % 16) * vm::kPageBytes);
        // A store into the read-only segment: protection fault, no
        // server registered, so the reference becomes an exception.
        vas[fault_at] = ro;

        u64 completed_per_call = 0;
        for (const vm::VAddr va : vas) {
            completed_per_call +=
                accessWithoutMemo(per_call, va, vm::AccessType::Store);
        }
        VectorStream stream(vas);
        Rng rng(1);
        const core::RunResult result =
            via_run.run(stream, kRefs, rng, vm::AccessType::Store);

        EXPECT_EQ(result.failed, 1u) << "fault_at " << fault_at;
        EXPECT_EQ(result.completed, completed_per_call)
            << "fault_at " << fault_at;
        EXPECT_EQ(via_run.cycles().count(), per_call.cycles().count())
            << "fault_at " << fault_at;
        EXPECT_EQ(dumpOf(via_run), dumpOf(per_call))
            << "fault_at " << fault_at;
    }
}

namespace
{

/** A server that services a write fault the expensive way: excursion
 * to another domain and back (an RPC), then a rights grant, then
 * retry. Everything the excursion touches -- domain switches, rights
 * changes -- must drop the model's same-page memo. */
class SwitchingServer : public os::SegmentServer
{
  public:
    SwitchingServer(os::DomainId app, os::DomainId server)
        : app_(app), server_(server)
    {
    }

    bool
    onProtectionFault(os::Kernel &kernel, os::DomainId domain,
                      vm::VAddr va, vm::AccessType) override
    {
        kernel.switchTo(server_);
        kernel.setPageRights(domain, vm::pageOf(va),
                             vm::Access::ReadWrite);
        kernel.switchTo(app_);
        return true;
    }

  private:
    os::DomainId app_;
    os::DomainId server_;
};

} // namespace

TEST_P(BatchedRunTest, MatchesPerCallAcrossMidChunkDomainSwitches)
{
    // Same-page stores over a read-only grant: every page's first
    // store faults, the server RPCs to another domain, grants the
    // right and retries. Replaying a pre-excursion memo would diverge
    // from the memo-free twin (or leak the old rights), so
    // bit-identity here pins the memo drops in the hooks.
    core::System per_call(core::SystemConfig::forModel(GetParam()));
    core::System via_run(core::SystemConfig::forModel(GetParam()));
    vm::VAddr base{};
    std::vector<std::unique_ptr<SwitchingServer>> servers;
    for (core::System *sys : {&per_call, &via_run}) {
        const os::DomainId app = sys->kernel().createDomain("app");
        const os::DomainId srv = sys->kernel().createDomain("server");
        const vm::SegmentId seg = sys->kernel().createSegment("heap", 8);
        sys->kernel().attach(app, seg, vm::Access::Read);
        sys->kernel().attach(srv, seg, vm::Access::ReadWrite);
        servers.push_back(std::make_unique<SwitchingServer>(app, srv));
        sys->kernel().setSegmentServer(seg, servers.back().get());
        sys->kernel().switchTo(app);
        base = sys->state().segments.find(seg)->base();
    }
    // Runs of same-page references around each fault so the memo is
    // warm when the excursion happens.
    std::vector<vm::VAddr> vas;
    for (u64 page = 0; page < 8; ++page)
        for (u64 rep = 0; rep < 40; ++rep)
            vas.push_back(base + page * vm::kPageBytes);

    u64 completed_per_call = 0;
    for (const vm::VAddr va : vas) {
        completed_per_call +=
            accessWithoutMemo(per_call, va, vm::AccessType::Store);
    }
    VectorStream stream(vas);
    Rng rng(1);
    const core::RunResult result =
        via_run.run(stream, vas.size(), rng, vm::AccessType::Store);

    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.completed, completed_per_call);
    EXPECT_EQ(via_run.cycles().count(), per_call.cycles().count());
    EXPECT_EQ(dumpOf(via_run), dumpOf(per_call));
}

TEST_P(BatchedRunTest, RightsRevocationReachesAWarmMemo)
{
    // Warm the memo with same-page stores, revoke the write right,
    // and store again: every post-revocation reference must deny. A
    // memo that survived onSetPageRights would keep completing stores
    // the canonical state forbids.
    TwinSystems twins(GetParam());
    const std::vector<vm::VAddr> warm(64, twins.base);
    expectTwinsMatch(twins, warm, vm::AccessType::Store);

    const os::DomainId app = twins.viaRun.kernel().currentDomain();
    twins.perCall.kernel().setPageRights(app, vm::pageOf(twins.base),
                                         vm::Access::Read);
    twins.viaRun.kernel().setPageRights(app, vm::pageOf(twins.base),
                                        vm::Access::Read);

    VectorStream stream(std::vector<vm::VAddr>(64, twins.base));
    Rng rng(1);
    const core::RunResult after =
        twins.viaRun.run(stream, 64, rng, vm::AccessType::Store);
    EXPECT_EQ(after.failed, 64u);
    EXPECT_EQ(after.completed, 0u);
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(accessWithoutMemo(twins.perCall, twins.base,
                                       vm::AccessType::Store));
    }
    EXPECT_EQ(dumpOf(twins.viaRun), dumpOf(twins.perCall));
}

TEST_P(BatchedRunTest, DetachReachesAWarmMemo)
{
    // Same shape with the whole grant revoked: detach mid-stream.
    core::System per_call(core::SystemConfig::forModel(GetParam()));
    core::System via_run(core::SystemConfig::forModel(GetParam()));
    vm::VAddr base{};
    vm::SegmentId seg{};
    os::DomainId app{};
    for (core::System *sys : {&per_call, &via_run}) {
        app = sys->kernel().createDomain("app");
        seg = sys->kernel().createSegment("heap", 8);
        sys->kernel().attach(app, seg, vm::Access::ReadWrite);
        sys->kernel().switchTo(app);
        base = sys->state().segments.find(seg)->base();
    }
    const std::vector<vm::VAddr> warm(64, base);
    u64 completed = 0;
    for (const vm::VAddr va : warm)
        completed += accessWithoutMemo(per_call, va, vm::AccessType::Load);
    {
        VectorStream stream(warm);
        Rng rng(1);
        const core::RunResult result =
            via_run.run(stream, warm.size(), rng, vm::AccessType::Load);
        EXPECT_EQ(result.completed, completed);
    }

    per_call.kernel().detach(app, seg);
    via_run.kernel().detach(app, seg);

    VectorStream stream(warm);
    Rng rng(1);
    const core::RunResult after =
        via_run.run(stream, 64, rng, vm::AccessType::Load);
    EXPECT_EQ(after.completed, 0u);
    EXPECT_EQ(after.failed, 64u);
    for (const vm::VAddr va : warm)
        EXPECT_FALSE(accessWithoutMemo(per_call, va, vm::AccessType::Load));
    EXPECT_EQ(dumpOf(via_run), dumpOf(per_call));
}

namespace
{

/** The warm memo an entry-point row must reach: the running domain's
 * hit on the heap's first page. */
struct MemoTarget
{
    os::DomainId app;
    vm::SegmentId heap;
    vm::Vpn page;
};

/** One operation that reaches a model entry point, applied to one
 * twin; `type` is the kind of reference that warms the memo before it
 * and follows it. */
struct EntryPointRow
{
    const char *name;
    vm::AccessType type;
    std::function<void(core::System &, const MemoTarget &)> op;
};

const std::vector<EntryPointRow> &
entryPointRows()
{
    using Op = std::function<void(core::System &, const MemoTarget &)>;
    constexpr vm::AccessType kLoad = vm::AccessType::Load;
    constexpr vm::AccessType kStore = vm::AccessType::Store;
    static const std::vector<EntryPointRow> rows = {
        {"attach raising the union", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             const os::DomainId other = sys.kernel().createDomain("other");
             sys.kernel().attach(other, t.heap, vm::Access::All);
         })},
        {"detach", kLoad,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().detach(t.app, t.heap);
         })},
        {"setPageRights", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().setPageRights(t.app, t.page, vm::Access::Read);
         })},
        {"setSegmentRights", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().setSegmentRights(t.app, t.heap, vm::Access::Read);
         })},
        {"restrictPage", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().restrictPage(t.page, vm::Access::Read);
         })},
        // Re-warm the memo under the mask, then lift it.
        {"unrestrictPage", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().restrictPage(t.page, vm::Access::Read);
             EXPECT_TRUE(sys.load(vm::baseOf(t.page)));
             EXPECT_TRUE(sys.load(vm::baseOf(t.page)));
             sys.kernel().unrestrictPage(t.page);
         })},
        {"unmapPage", kLoad,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().unmapPage(t.page);
         })},
        {"pager page-out", kLoad,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.makePager({}).pageOut(t.page);
         })},
        {"pager page-in", kLoad,
         Op([](core::System &sys, const MemoTarget &t) {
             os::Pager &pager = sys.makePager({});
             pager.pageOut(t.page);
             pager.pageIn(t.page);
         })},
        {"fork with copy-on-write", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             const os::DomainId child = sys.kernel().createDomain("child");
             sys.kernel().forkSegmentCow(t.heap, child,
                                         vm::Access::ReadWrite, "child");
         })},
        {"destroyDomain", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             const os::DomainId other = sys.kernel().createDomain("other");
             sys.kernel().attach(other, t.heap, vm::Access::Read);
             sys.kernel().destroyDomain(other);
         })},
        {"destroySegment", kLoad,
         Op([](core::System &sys, const MemoTarget &t) {
             sys.kernel().destroySegment(t.heap);
         })},
        {"domain switch and back", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             const os::DomainId other = sys.kernel().createDomain("other");
             sys.kernel().switchTo(other);
             sys.kernel().switchTo(t.app);
         })},
        // A stale read-only entry: the next store is denied in
        // hardware, granted by the tables, and repaired through
        // refreshAfterFault.
        {"denied reference repaired by refreshAfterFault", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             EXPECT_TRUE(test::setCachedRights(sys.model(), t.app, t.page,
                                               vm::Access::Read));
         })},
        // Save, revoke the write right and re-warm the memo under it,
        // then load the image, which grants it again.
        {"save/load round trip", kStore,
         Op([](core::System &sys, const MemoTarget &t) {
             snap::SnapWriter w;
             sys.save(w);
             std::vector<u8> image = std::move(w).seal();
             sys.kernel().setPageRights(t.app, t.page, vm::Access::Read);
             EXPECT_TRUE(sys.load(vm::baseOf(t.page)));
             EXPECT_TRUE(sys.load(vm::baseOf(t.page)));
             snap::SnapReader r(std::move(image));
             sys.load(r);
         })},
    };
    return rows;
}

} // namespace

TEST_P(BatchedRunTest, EveryEntryPointReachesAWarmMemo)
{
    // Warm the memo with same-page references, run one operation on
    // both twins, then reference the page again. A memo that survived
    // the entry point would replay an entry the operation revoked,
    // evicted or rewrote -- completing a reference the tables forbid,
    // or counting a hit where the memo-free twin misses -- so the run
    // twin's events or stats would leave the memo-free twin's.
    for (const EntryPointRow &row : entryPointRows()) {
        SCOPED_TRACE(row.name);
        TwinSystems twins(GetParam());
        const MemoTarget target{twins.viaRun.kernel().currentDomain(),
                                twins.heap, vm::pageOf(twins.base)};
        const std::vector<vm::VAddr> same_page(64, twins.base);
        expectTwinsMatch(twins, same_page, row.type);
        const auto run_events =
            eventsOf([&] { row.op(twins.viaRun, target); });
        const auto per_call_events =
            eventsOf([&] { row.op(twins.perCall, target); });
        expectSameEvents(run_events, per_call_events);
        expectTwinsMatch(twins, same_page, row.type);
    }
}

TEST_P(BatchedRunTest, DirectPurgePlusMemoInvalidateStaysIdentical)
{
    // A structure poked from outside the model (no entry point runs)
    // must be followed by dropMemo(). Do that on both twins: after the
    // purge the next run must re-probe and refill exactly like the
    // memo-free twin instead of replaying the pre-purge resolution
    // from the memo.
    TwinSystems twins(GetParam());
    const std::vector<vm::VAddr> warm(64, twins.base);
    expectTwinsMatch(twins, warm, vm::AccessType::Load);

    const os::DomainId app = twins.viaRun.kernel().currentDomain();
    const vm::Vpn first = vm::pageOf(twins.base);
    for (core::System *sys : {&twins.perCall, &twins.viaRun}) {
        if (auto *plb = sys->plbSystem()) {
            plb->plb().purgeRange(app, first, 64);
        } else if (auto *pg = sys->pageGroupSystem()) {
            pg->pageGroupCache().purgeAll();
            pg->tlb().purgeRange(std::nullopt, first, 64);
        } else if (auto *pkey = sys->pkeySystem()) {
            pkey->keyCache().purgeAll();
            pkey->tlb().purgeRange(std::nullopt, first, 64);
        } else {
            sys->conventionalSystem()->tlb().purgeRange(std::nullopt,
                                                        first, 64);
        }
        sys->model().dropMemo();
    }

    expectTwinsMatch(twins, warm, vm::AccessType::Load);
}

TEST_P(BatchedRunTest, FaultInjectedRunMatchesPerCall)
{
    expectInjectedTwinsMatch(core::SystemConfig::forModel(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, BatchedRunTest, ::testing::ValuesIn(core::allModels()),
    [](const ::testing::TestParamInfo<core::ModelKind> &info) {
        switch (info.param) {
          case core::ModelKind::Plb:
            return "plb";
          case core::ModelKind::PageGroup:
            return "pagegroup";
          case core::ModelKind::Conventional:
            return "conventional";
          case core::ModelKind::Pkey:
            return "pkey";
        }
        return "unknown";
    });

// The BatchedRunTest twins at plb_clusters=4. A memo hit must count
// at bank and cluster level exactly as ClusterPlb::lookup does, so the
// bank stats of a run equal those of memo-free per-call issue.

TEST(ClusteredPlbRunTest, MatchesPerCallAccessCycleForCycle)
{
    TwinSystems twins(clusteredPlbConfig());
    expectZipfTwinsMatch(twins, 30'000, 11);
}

TEST(ClusteredPlbRunTest, SameLineRunsCountAtBankLevel)
{
    // 64 pages x 8 lines of loads, untraced: each page's first load
    // demand-maps and retries, the other seven are memo hits on the
    // run side.
    TwinSystems twins(clusteredPlbConfig());
    std::vector<vm::VAddr> vas;
    for (u64 page = 0; page < 64; ++page)
        for (u64 line = 0; line < 8; ++line)
            vas.push_back(twins.base + page * vm::kPageBytes + line * 64);
    for (const vm::VAddr va : vas)
        accessWithoutMemo(twins.perCall, va, vm::AccessType::Load);
    VectorStream stream(vas);
    Rng rng(1);
    twins.viaRun.run(stream, vas.size(), rng, vm::AccessType::Load);
    EXPECT_EQ(dumpOf(twins.viaRun), dumpOf(twins.perCall));

    const hw::ClusterPlb &plb = *twins.viaRun.plbSystem()->clusterPlb();
    u64 bank_lookups = 0;
    u64 bank_hits = 0;
    for (unsigned i = 0; i < plb.clusters(); ++i) {
        bank_lookups += plb.bank(i).lookups.value();
        bank_hits += plb.bank(i).hits.value();
    }
    EXPECT_EQ(plb.lookups.value(), 64u * 8 + 64);
    EXPECT_EQ(plb.hits.value(), 64u * 8);
    EXPECT_EQ(bank_lookups, plb.lookups.value());
    EXPECT_EQ(bank_hits, plb.hits.value());
}

TEST(ClusteredPlbRunTest, FaultInjectedRunMatchesPerCall)
{
    expectInjectedTwinsMatch(clusteredPlbConfig());
}
