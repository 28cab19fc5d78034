/**
 * @file
 * The snapshot/restore subsystem's test suite.
 *
 * The centerpiece is the resume-equivalence oracle: run N references,
 * snapshot, overlay the image onto freshly constructed objects,
 * continue -- and every statistic, simulated cycle and traced event
 * must be bit-identical to the uninterrupted run. That is checked for
 * all four protection models, for a fault-injected machine, and for
 * the four-core multi-core engine (through a file round trip).
 *
 * Around it: snapio primitive round trips, the envelope checksum's
 * known answers and single-bit-flip coverage, corrupt-image rejection
 * (truncation, bit flips, bad magic, a previous or future version,
 * hostile lengths, config mismatches -- all clean fatals, rerouted
 * into exceptions here), the protection-key model's kernel key tables
 * (round trip and rejection), stateful stream resume, warm-start
 * sweep identity, the restored counters vs. obs event-stream
 * reconciliation, a checked-in v5 image guarding compatibility
 * (SASOS_GOLDEN_REGEN=1 regenerates it), and crafted replacement,
 * tag and frame-allocator sections, one death test per load-time
 * check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mc/mc_system.hh"
#include "obs/tracer.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "snap/snapshot.hh"
#include "farm/campaign.hh"
#include "hw/assoc_cache.hh"
#include "vm/phys_mem.hh"
#include "workload/address_stream.hh"

#include "temp_path.hh"

using namespace sasos;

namespace
{

std::string
dataPath(const char *name)
{
    return std::string(SASOS_TEST_DATA_DIR) + "/" + name;
}

/** SASOS_FATAL rerouted into a catchable exception, per test scope. */
struct FatalRejection : std::runtime_error
{
    explicit FatalRejection(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

class ScopedFatalThrow
{
  public:
    ScopedFatalThrow()
    {
        previous_ = setFatalHandler([](const std::string &message) -> void {
            throw FatalRejection(message);
        });
    }
    ~ScopedFatalThrow() { setFatalHandler(previous_); }

  private:
    FatalHandler previous_;
};

constexpr u64 kPages = 64;
constexpr u64 kSeed = 42;

vm::VAddr
setupHeap(core::System &sys, u64 pages = kPages)
{
    const os::DomainId app = sys.kernel().createDomain("app");
    const vm::SegmentId seg = sys.kernel().createSegment("heap", pages);
    sys.kernel().attach(app, seg, vm::Access::ReadWrite);
    sys.kernel().switchTo(app);
    return sys.state().segments.find(seg)->base();
}

std::string
dumpOf(core::System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

std::string
dumpOf(core::mc::McSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** An event stripped of its merge-local sequence number: traces from
 * a split run are compared against the uninterrupted one by content,
 * not by where stopTracing() renumbered them. */
using EventEssence = std::tuple<u64, u64, u64, u32, obs::EventKind>;

std::vector<EventEssence>
essenceOf(const std::vector<obs::Event> &events)
{
    std::vector<EventEssence> out;
    out.reserve(events.size());
    for (const obs::Event &event : events)
        out.emplace_back(event.cycle, event.addr, event.arg, event.tid,
                         event.kind);
    return out;
}

std::unique_ptr<wl::AddressStream>
makeWorkingSet(vm::VAddr base, u64 pages)
{
    return std::make_unique<wl::WorkingSetStream>(
        base, pages, pages / 8 ? pages / 8 : 1, 512);
}

struct RunOutcome
{
    std::string stats;
    u64 cycles = 0;
    u64 completed = 0;
    u64 failed = 0;
    std::vector<EventEssence> events;
};

/** The reference run: `total` references, never interrupted. */
RunOutcome
runStraight(const core::SystemConfig &config, u64 total)
{
    obs::setThreadId(1);
    obs::startTracing();
    core::System sys(config);
    const vm::VAddr base = setupHeap(sys);
    Rng rng(kSeed);
    auto stream = makeWorkingSet(base, kPages);
    const core::RunResult run = sys.run(*stream, total, rng);
    RunOutcome out;
    out.events = essenceOf(obs::stopTracing());
    out.stats = dumpOf(sys);
    out.cycles = sys.cycles().count();
    out.completed = run.completed;
    out.failed = run.failed;
    return out;
}

/** The split run: `prefix` references, snapshot, restore onto fresh
 * objects, continue with `rest` more. */
RunOutcome
runSplit(const core::SystemConfig &config, u64 prefix, u64 rest)
{
    obs::setThreadId(1);
    obs::startTracing();
    core::System warm(config);
    const vm::VAddr base = setupHeap(warm);
    Rng rng(kSeed);
    auto stream = makeWorkingSet(base, kPages);
    const core::RunResult first = warm.run(*stream, prefix, rng);

    snap::Snapshotter snapper;
    snapper.add(warm);
    snapper.add(rng);
    snapper.add(*stream);
    const snap::Snapshot image = std::move(snapper).finish();
    std::vector<EventEssence> events = essenceOf(obs::stopTracing());

    // Fresh process stand-ins: same construction recipe, different
    // seeds, overlaid from the image.
    obs::setThreadId(1);
    obs::startTracing();
    core::System sys(config);
    setupHeap(sys);
    Rng resumed(kSeed + 999);
    auto resumedStream = makeWorkingSet(base, kPages);
    snap::Restorer restorer(image);
    restorer.restore(sys);
    restorer.restore(resumed);
    restorer.restore(*resumedStream);
    restorer.finish();

    const core::RunResult second = sys.run(*resumedStream, rest, resumed);
    const std::vector<EventEssence> tail = essenceOf(obs::stopTracing());
    events.insert(events.end(), tail.begin(), tail.end());

    RunOutcome out;
    out.events = std::move(events);
    out.stats = dumpOf(sys);
    out.cycles = sys.cycles().count();
    out.completed = first.completed + second.completed;
    out.failed = first.failed + second.failed;
    return out;
}

void
expectResumeEquivalent(const core::SystemConfig &config, u64 total)
{
    const RunOutcome straight = runStraight(config, total);
    const RunOutcome split = runSplit(config, total / 2, total - total / 2);
    EXPECT_EQ(straight.stats, split.stats);
    EXPECT_EQ(straight.cycles, split.cycles);
    EXPECT_EQ(straight.completed, split.completed);
    EXPECT_EQ(straight.failed, split.failed);
    EXPECT_EQ(straight.events, split.events);
}

} // namespace

// ---------------------------------------------------------------------
// snapio primitives

TEST(SnapIoTest, PrimitivesRoundTrip)
{
    snap::SnapWriter writer;
    writer.putTag("hello");
    writer.put8(7);
    writer.put16(0xBEEF);
    writer.put32(0xDEADBEEFu);
    writer.put64(0x0123456789ABCDEFull);
    writer.putBool(true);
    writer.putBool(false);
    writer.putDouble(3.25);
    writer.putString("sasos");
    writer.putString("");

    snap::SnapReader reader(std::move(writer).seal());
    reader.expectTag("hello");
    EXPECT_EQ(reader.get8(), 7u);
    EXPECT_EQ(reader.get16(), 0xBEEFu);
    EXPECT_EQ(reader.get32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.get64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(reader.getBool());
    EXPECT_FALSE(reader.getBool());
    EXPECT_EQ(reader.getDouble(), 3.25);
    EXPECT_EQ(reader.getString(), "sasos");
    EXPECT_EQ(reader.getString(), "");
    EXPECT_EQ(reader.remaining(), 0u);
    reader.finish();
}

TEST(SnapIoTest, TagMismatchIsFatal)
{
    ScopedFatalThrow bridge;
    snap::SnapWriter writer;
    writer.putTag("alpha");
    const std::vector<u8> image = std::move(writer).seal();
    snap::SnapReader reader(image);
    EXPECT_THROW(reader.expectTag("beta"), FatalRejection);
}

TEST(SnapIoTest, HostileCountIsFatal)
{
    ScopedFatalThrow bridge;
    snap::SnapWriter writer;
    writer.put64(~u64{0}); // a count promising 2^64-1 elements
    snap::SnapReader reader(std::move(writer).seal());
    EXPECT_THROW(reader.getCount(8), FatalRejection);
}

// ---------------------------------------------------------------------
// The v5 envelope checksum

namespace
{

/** A fixed, non-repeating-by-word byte pattern. */
std::vector<u8>
checksumPattern(std::size_t size)
{
    std::vector<u8> bytes(size);
    for (std::size_t i = 0; i < size; ++i)
        bytes[i] = static_cast<u8>(i * 37 + 11);
    return bytes;
}

} // namespace

TEST(SnapChecksumTest, KnownAnswers)
{
    // Pins the format: a change to any lane, fold, tail or finalizer
    // step changes these values, and with them every v5 image.
    const std::vector<std::pair<std::size_t, u64>> expected = {
        {0, 0xF5C5230AF08E1459ull},   {1, 0xF04A9C394E35D48Dull},
        {7, 0xA21F33787313E679ull},   {8, 0xA023ABA4BC6B37A5ull},
        {31, 0xC60BA6E1B0AE7233ull},  {32, 0xAF904A07694025CBull},
        {33, 0xF0295F64315B88D7ull},  {64, 0x08566733F8934350ull},
        {1000, 0x62ADF66CF05B5098ull},
    };
    const std::vector<u8> bytes = checksumPattern(1000);
    for (const auto &[size, sum] : expected) {
        EXPECT_EQ(snap::checksum64(bytes.data(), size), sum)
            << size << " bytes";
    }
}

TEST(SnapChecksumTest, EverySingleBitFlipIsAChecksumMismatch)
{
    // 303 payload bytes: nine 32-byte stripes, then a tail that takes
    // the 8-byte, 4-byte and single-byte steps.
    snap::SnapWriter writer;
    writer.putTag("flips");
    writer.putBytes(checksumPattern(289));
    const std::vector<u8> image = std::move(writer).seal();
    ASSERT_EQ(image.size() - snap::kHeaderBytes, 303u);
    ASSERT_EQ(snap::preflightEnvelope(image), "");

    std::vector<u8> flipped = image;
    for (std::size_t at = snap::kHeaderBytes; at < image.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            flipped[at] ^= static_cast<u8>(1u << bit);
            EXPECT_EQ(snap::preflightEnvelope(flipped), "checksum mismatch")
                << "payload byte " << at - snap::kHeaderBytes << " bit "
                << bit;
            flipped[at] = image[at];
        }
    }
}

// ---------------------------------------------------------------------
// Resume equivalence: the subsystem's correctness bar

TEST(SnapResumeTest, PlbModel)
{
    expectResumeEquivalent(core::SystemConfig::plbSystem(), 6000);
}

TEST(SnapResumeTest, PageGroupModel)
{
    expectResumeEquivalent(core::SystemConfig::pageGroupSystem(), 6000);
}

TEST(SnapResumeTest, ConventionalModel)
{
    expectResumeEquivalent(core::SystemConfig::conventionalSystem(), 6000);
}

TEST(SnapResumeTest, PkeyModel)
{
    expectResumeEquivalent(core::SystemConfig::pkeySystem(), 6000);
}

TEST(SnapResumeTest, PkeyModelUnderKeyRecycling)
{
    // A key space smaller than the 8 working-set segments the stream
    // touches keeps the recycling machinery hot across the snapshot
    // point; the restored key tables must carry the bindings exactly.
    core::SystemConfig config = core::SystemConfig::pkeySystem();
    config.pkeys = 2;
    expectResumeEquivalent(config, 6000);
}

TEST(SnapResumeTest, FaultInjectedMachine)
{
    core::SystemConfig config = core::SystemConfig::plbSystem();
    config.faults.enabled = true;
    config.faults.seed = 7;
    config.faults.rate = 0.05;
    expectResumeEquivalent(config, 6000);
}

TEST(SnapResumeTest, MidSweepCheckpointEveryQuarter)
{
    // Four checkpoint/restore hops across one run still land
    // bit-identical on the uninterrupted stats.
    const core::SystemConfig config = core::SystemConfig::pageGroupSystem();
    const u64 total = 8000;
    const RunOutcome straight = runStraight(config, total);

    obs::setThreadId(1);
    obs::startTracing();
    auto sys = std::make_unique<core::System>(config);
    const vm::VAddr base = setupHeap(*sys);
    auto rng = std::make_unique<Rng>(kSeed);
    auto stream = makeWorkingSet(base, kPages);
    std::vector<EventEssence> events;
    u64 completed = 0;
    u64 failed = 0;
    for (int hop = 0; hop < 4; ++hop) {
        const core::RunResult run =
            sys->run(*stream, total / 4, *rng);
        completed += run.completed;
        failed += run.failed;

        snap::Snapshotter snapper;
        snapper.add(*sys);
        snapper.add(*rng);
        snapper.add(*stream);
        const snap::Snapshot image = std::move(snapper).finish();
        const std::vector<EventEssence> part =
            essenceOf(obs::stopTracing());
        events.insert(events.end(), part.begin(), part.end());

        obs::setThreadId(1);
        obs::startTracing();
        sys = std::make_unique<core::System>(config);
        setupHeap(*sys);
        rng = std::make_unique<Rng>(hop + 1);
        stream = makeWorkingSet(base, kPages);
        snap::Restorer restorer(image);
        restorer.restore(*sys);
        restorer.restore(*rng);
        restorer.restore(*stream);
        restorer.finish();
    }
    const std::vector<EventEssence> part = essenceOf(obs::stopTracing());
    events.insert(events.end(), part.begin(), part.end());

    EXPECT_EQ(straight.stats, dumpOf(*sys));
    EXPECT_EQ(straight.cycles, sys->cycles().count());
    EXPECT_EQ(straight.completed, completed);
    EXPECT_EQ(straight.failed, failed);
    EXPECT_EQ(straight.events, events);
}

// ---------------------------------------------------------------------
// Multi-core engine resume

namespace
{

core::mc::McConfig
mcConfig()
{
    core::mc::McConfig config;
    config.system = core::SystemConfig::plbSystem();
    config.cores = 4;
    config.scheduleSeed = 3;
    config.workload.stepsPerCore = 800;
    config.workload.churnProb = 0.05;
    config.workload.seed = 11;
    config.recordOutcomes = true;
    return config;
}

void
expectSameResult(const core::mc::McResult &a, const core::mc::McResult &b)
{
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.kernelOps, b.kernelOps);
    EXPECT_EQ(a.shootdowns, b.shootdowns);
    EXPECT_EQ(a.acks, b.acks);
    EXPECT_EQ(a.staleWindowRefs, b.staleWindowRefs);
    EXPECT_EQ(a.staleGrants, b.staleGrants);
    EXPECT_EQ(a.invariantViolations, b.invariantViolations);
    EXPECT_EQ(a.hwViolations, b.hwViolations);
    EXPECT_EQ(a.quiescentChecks, b.quiescentChecks);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.coreCompleted, b.coreCompleted);
    EXPECT_EQ(a.coreFailed, b.coreFailed);
    EXPECT_EQ(a.quiescentOutcomes, b.quiescentOutcomes);
    EXPECT_EQ(a.coreOutcomes, b.coreOutcomes);
    EXPECT_EQ(a.firstViolation, b.firstViolation);
}

} // namespace

TEST(SnapMcTest, FourCoreResumeThroughFileRoundTrip)
{
    const core::mc::McConfig config = mcConfig();

    core::mc::McSystem straight(config);
    const core::mc::McResult full = straight.run();
    const std::string fullStats = dumpOf(straight);

    // Half the schedule: 4 cores x 800 steps is ~400 quantum-8 turns.
    core::mc::McSystem first(config);
    first.run(200);
    ASSERT_FALSE(first.done())
        << "partial run finished early; shrink max_slots";

    snap::Snapshotter snapper;
    snapper.add(first);
    const std::string path = test::uniqueTempPath("snap_mc_test.snap");
    std::move(snapper).finish().toFile(path);

    core::mc::McSystem resumed(config);
    snap::Restorer restorer(snap::Snapshot::fromFile(path));
    restorer.restore(resumed);
    restorer.finish();
    std::filesystem::remove(path);

    const core::mc::McResult continued = resumed.run();
    EXPECT_TRUE(resumed.done());
    expectSameResult(full, continued);
    EXPECT_EQ(fullStats, dumpOf(resumed));
}

// ---------------------------------------------------------------------
// Mid-scenario snapshots: fork tree half-built, portals in flight

namespace
{

/** Tally of one (possibly split) scenario replay. */
struct ScenarioOutcome
{
    std::string stats;
    u64 cycles = 0;
    u64 allowed = 0;
    u64 denied = 0;
    std::vector<EventEssence> events;
};

ScenarioOutcome
runScenarioStraight(const core::SystemConfig &config,
                    const scn::Script &script)
{
    obs::setThreadId(1);
    obs::startTracing();
    core::System sys(config);
    const scn::RunStats tally = scn::runScript(sys, script);
    ScenarioOutcome out;
    out.events = essenceOf(obs::stopTracing());
    out.stats = dumpOf(sys);
    out.cycles = sys.cycles().count();
    out.allowed = tally.allowed;
    out.denied = tally.denied;
    return out;
}

/** Replay ops [0, cut), snapshot, restore onto a fresh System, and
 * replay the rest. The runner is stateless, so the op index is the
 * only resume cursor needed. */
ScenarioOutcome
runScenarioSplit(const core::SystemConfig &config,
                 const scn::Script &script, std::size_t cut)
{
    obs::setThreadId(1);
    obs::startTracing();
    core::System warm(config);
    const scn::RunStats first = scn::runScript(warm, script, 0, cut);

    snap::Snapshotter snapper;
    snapper.add(warm);
    const snap::Snapshot image = std::move(snapper).finish();
    std::vector<EventEssence> events = essenceOf(obs::stopTracing());

    obs::setThreadId(1);
    obs::startTracing();
    core::System sys(config);
    snap::Restorer restorer(image);
    restorer.restore(sys);
    restorer.finish();
    const scn::RunStats second = scn::runScript(sys, script, cut);
    const std::vector<EventEssence> tail = essenceOf(obs::stopTracing());
    events.insert(events.end(), tail.begin(), tail.end());

    ScenarioOutcome out;
    out.events = std::move(events);
    out.stats = dumpOf(sys);
    out.cycles = sys.cycles().count();
    out.allowed = first.allowed + second.allowed;
    out.denied = first.denied + second.denied;
    return out;
}

/** The op index just past the last ForkCow: the fork tree is fully
 * built and every shared page still awaits its CoW resolution, so the
 * image carries shared frames, elevated refcounts and a nonempty CoW
 * set. Scripts without forks cut mid-stream. */
std::size_t
interestingCut(const scn::Script &script)
{
    for (std::size_t i = script.ops.size(); i > 0; --i)
        if (script.ops[i - 1].kind == scn::OpKind::ForkCow)
            return i;
    return script.ops.size() / 2;
}

void
expectScenarioResumeEquivalent(const core::SystemConfig &config,
                               const scn::Script &script)
{
    const ScenarioOutcome straight = runScenarioStraight(config, script);
    for (const std::size_t cut :
         {interestingCut(script), script.ops.size() / 2,
          script.ops.size() / 3}) {
        const ScenarioOutcome split =
            runScenarioSplit(config, script, cut);
        EXPECT_EQ(straight.stats, split.stats)
            << script.name << " cut at op " << cut;
        EXPECT_EQ(straight.cycles, split.cycles)
            << script.name << " cut at op " << cut;
        EXPECT_EQ(straight.allowed, split.allowed);
        EXPECT_EQ(straight.denied, split.denied);
        EXPECT_EQ(straight.events, split.events)
            << script.name << " cut at op " << cut;
    }
}

} // namespace

TEST(SnapScenarioTest, ForkTreeMidBuildRoundTripsOnEveryModel)
{
    const scn::Script script = scn::buildForkScript(scn::ForkConfig{});
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup,
          core::ModelKind::Conventional, core::ModelKind::Pkey})
        expectScenarioResumeEquivalent(core::SystemConfig::forModel(kind),
                                       script);
}

TEST(SnapScenarioTest, PortalChainsInFlightRoundTrip)
{
    expectScenarioResumeEquivalent(
        core::SystemConfig::plbSystem(),
        scn::buildPortalScript(scn::PortalConfig{}));
}

TEST(SnapScenarioTest, ServerMixMidWaveRoundTrip)
{
    expectScenarioResumeEquivalent(
        core::SystemConfig::plbSystem(),
        scn::buildServerMixScript(scn::ServerMixConfig{}));
}

// ---------------------------------------------------------------------
// Untrusted images: every malformation is a clean fatal

namespace
{

/** A small valid image to deface. */
snap::Snapshot
smallImage()
{
    core::System sys(core::SystemConfig::plbSystem());
    setupHeap(sys, 8);
    Rng rng(1);
    snap::Snapshotter snapper;
    snapper.add(sys);
    snapper.add(rng);
    return std::move(snapper).finish();
}

void
expectRejected(const snap::Snapshot &image)
{
    EXPECT_THROW(
        {
            core::System sys(core::SystemConfig::plbSystem());
            setupHeap(sys, 8);
            Rng rng(9);
            snap::Restorer restorer(image);
            restorer.restore(sys);
            restorer.restore(rng);
            restorer.finish();
        },
        FatalRejection);
}

} // namespace

TEST(SnapCorruptionTest, TruncationsAreRejected)
{
    ScopedFatalThrow bridge;
    const snap::Snapshot valid = smallImage();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{31}, std::size_t{32},
          valid.bytes.size() / 2, valid.bytes.size() - 1}) {
        snap::Snapshot cut = valid;
        cut.bytes.resize(keep);
        expectRejected(cut);
    }
}

TEST(SnapCorruptionTest, BitFlipsAreRejected)
{
    ScopedFatalThrow bridge;
    const snap::Snapshot valid = smallImage();
    // One flip in the magic, the version, the length, the checksum,
    // and a sweep of payload positions.
    std::vector<std::size_t> positions = {0, 9, 17, 25};
    for (std::size_t at = 32; at < valid.bytes.size();
         at += valid.bytes.size() / 13 + 1)
        positions.push_back(at);
    for (const std::size_t at : positions) {
        snap::Snapshot flipped = valid;
        flipped.bytes[at] ^= 0x10;
        expectRejected(flipped);
    }
}

TEST(SnapCorruptionTest, FutureVersionIsRejected)
{
    ScopedFatalThrow bridge;
    snap::Snapshot valid = smallImage();
    valid.bytes[8] = 0xFF; // version field, little-endian low byte
    expectRejected(valid);
}

TEST(SnapCorruptionTest, PreviousVersionIsRejected)
{
    ScopedFatalThrow bridge;
    snap::Snapshot old = smallImage();
    const u32 previous = snap::kFormatVersion - 1;
    old.bytes[8] = static_cast<u8>(previous); // little-endian low byte
    try {
        snap::Restorer restorer(old);
        FAIL() << "a version " << previous << " image was accepted";
    } catch (const FatalRejection &rejection) {
        const std::string message = rejection.what();
        EXPECT_NE(message.find("version " + std::to_string(previous)),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("reads version " +
                               std::to_string(snap::kFormatVersion)),
                  std::string::npos)
            << message;
    }
}

TEST(SnapCorruptionTest, HostileLengthIsRejected)
{
    ScopedFatalThrow bridge;
    snap::Snapshot valid = smallImage();
    for (int i = 0; i < 8; ++i)
        valid.bytes[16 + i] = 0xFF; // promises ~2^64 payload bytes
    expectRejected(valid);
}

TEST(SnapCorruptionTest, TrailingBytesAreRejected)
{
    ScopedFatalThrow bridge;
    const snap::Snapshot image = smallImage();
    EXPECT_THROW(
        {
            core::System sys(core::SystemConfig::plbSystem());
            setupHeap(sys, 8);
            snap::Restorer restorer(image);
            restorer.restore(sys);
            // The image still holds the Rng section.
            restorer.finish();
        },
        FatalRejection);
}

TEST(SnapCorruptionTest, ConfigMismatchNamesTheField)
{
    ScopedFatalThrow bridge;
    const snap::Snapshot image = smallImage();
    core::System other(core::SystemConfig::conventionalSystem());
    setupHeap(other, 8);
    snap::Restorer restorer(image);
    try {
        restorer.restore(other);
        FAIL() << "mismatched config was accepted";
    } catch (const FatalRejection &rejection) {
        EXPECT_NE(std::string(rejection.what()).find("model"),
                  std::string::npos)
            << "fatal should name the mismatched field: "
            << rejection.what();
    }
}

/**
 * pgCache.policy is the one policy field that varies, and no golden
 * image covers it (golden_v5.snap is a pkey machine). A PID-register
 * machine (Random) restored into a page-group one (LRU) of the same
 * size pins both encoded values.
 */
TEST(SnapCorruptionTest, PolicyEncodingsArePinned)
{
    ScopedFatalThrow bridge;
    core::System donor(core::SystemConfig::pidRegisterSystem());
    setupHeap(donor, 8);
    snap::Snapshotter snapper;
    snapper.add(donor);
    const snap::Snapshot image = std::move(snapper).finish();

    core::SystemConfig config = core::SystemConfig::pageGroupSystem();
    config.pgCache.entries = 4;
    core::System other(config);
    setupHeap(other, 8);
    snap::Restorer restorer(image);
    try {
        restorer.restore(other);
        FAIL() << "a Random page-group cache restored into an LRU one";
    } catch (const FatalRejection &rejection) {
        EXPECT_NE(std::string(rejection.what())
                      .find("config field 'pgCache.policy' is 0 here but "
                            "2 in the image"),
                  std::string::npos)
            << rejection.what();
    }
}

TEST(SnapCorruptionTest, MissingFileIsFatal)
{
    ScopedFatalThrow bridge;
    EXPECT_THROW(snap::Snapshot::fromFile("/nonexistent/no.snap"),
                 FatalRejection);
}

// ---------------------------------------------------------------------
// Protection-key kernel tables (the v3 format addition)

namespace
{

/** A pkey machine whose image carries nontrivial key tables: a tight
 * key space keeps recycling hot and a restricted page adds a page-key
 * binding next to the segment keys. */
snap::Snapshot
pkeyImage(core::System &sys, vm::VAddr *base_out = nullptr)
{
    const vm::VAddr base = setupHeap(sys);
    if (base_out != nullptr)
        *base_out = base;
    Rng rng(kSeed);
    auto stream = makeWorkingSet(base, kPages);
    sys.run(*stream, 2000, rng);
    sys.kernel().restrictPage(vm::pageOf(base), vm::Access::Read);
    snap::Snapshotter snapper;
    snapper.add(sys);
    return std::move(snapper).finish();
}

} // namespace

TEST(SnapPkeyTest, KeyTablesRoundTrip)
{
    core::SystemConfig config = core::SystemConfig::pkeySystem();
    config.pkeys = 4;
    core::System sys(config);
    vm::VAddr base{0};
    const snap::Snapshot image = pkeyImage(sys, &base);

    core::System restored(config);
    setupHeap(restored);
    snap::Restorer restorer(image);
    restorer.restore(restored);
    restorer.finish();

    // The kernel key tables came back exactly: same bindings for
    // every page (segment keys and the promoted page key alike).
    EXPECT_EQ(restored.pkeySystem()->boundKeys(),
              sys.pkeySystem()->boundKeys());
    for (u64 p = 0; p < kPages; ++p) {
        const vm::Vpn vpn = vm::pageOf(base + p * vm::kPageBytes);
        EXPECT_EQ(restored.pkeySystem()->keyOf(vpn),
                  sys.pkeySystem()->keyOf(vpn))
            << "page " << p;
    }
    EXPECT_EQ(dumpOf(sys), dumpOf(restored));
}

TEST(SnapPkeyTest, CorruptKeyTablesAreRejected)
{
    ScopedFatalThrow bridge;
    core::SystemConfig config = core::SystemConfig::pkeySystem();
    config.pkeys = 4;
    core::System donor(config);
    const snap::Snapshot valid = pkeyImage(donor);

    for (std::size_t at = 32; at < valid.bytes.size();
         at += valid.bytes.size() / 13 + 1) {
        snap::Snapshot flipped = valid;
        flipped.bytes[at] ^= 0x10;
        EXPECT_THROW(
            {
                core::System sys(config);
                setupHeap(sys);
                snap::Restorer restorer(flipped);
                restorer.restore(sys);
                restorer.finish();
            },
            FatalRejection)
            << "flip at byte " << at;
    }
}

TEST(SnapPkeyTest, KeySpaceMismatchNamesTheField)
{
    ScopedFatalThrow bridge;
    core::SystemConfig config = core::SystemConfig::pkeySystem();
    config.pkeys = 4;
    core::System donor(config);
    const snap::Snapshot image = pkeyImage(donor);

    core::SystemConfig wider = core::SystemConfig::pkeySystem();
    wider.pkeys = 8;
    core::System other(wider);
    setupHeap(other);
    snap::Restorer restorer(image);
    try {
        restorer.restore(other);
        FAIL() << "mismatched key space was accepted";
    } catch (const FatalRejection &rejection) {
        EXPECT_NE(std::string(rejection.what()).find("pkeys"),
                  std::string::npos)
            << "fatal should name the mismatched field: "
            << rejection.what();
    }
}

// ---------------------------------------------------------------------
// Stateful streams resume mid-sequence

TEST(SnapStreamTest, SequentialStreamResumes)
{
    const vm::VAddr base{0x100000};
    wl::SequentialStream original(base, 64 * vm::kPageBytes, 64);
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        original.next(rng);

    snap::Snapshotter snapper;
    snapper.add(original);
    snapper.add(rng);
    const snap::Snapshot image = std::move(snapper).finish();

    wl::SequentialStream resumed(base, 64 * vm::kPageBytes, 64);
    Rng resumedRng(77);
    snap::Restorer restorer(image);
    restorer.restore(resumed);
    restorer.restore(resumedRng);
    restorer.finish();

    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(original.next(rng).raw(), resumed.next(resumedRng).raw());
}

TEST(SnapStreamTest, WorkingSetStreamResumes)
{
    const vm::VAddr base{0x100000};
    wl::WorkingSetStream original(base, 64, 8, 512);
    Rng rng(5);
    for (int i = 0; i < 700; ++i)
        original.next(rng);

    snap::Snapshotter snapper;
    snapper.add(original);
    snapper.add(rng);
    const snap::Snapshot image = std::move(snapper).finish();

    wl::WorkingSetStream resumed(base, 64, 8, 512);
    Rng resumedRng(77);
    snap::Restorer restorer(image);
    restorer.restore(resumed);
    restorer.restore(resumedRng);
    restorer.finish();

    for (int i = 0; i < 900; ++i)
        EXPECT_EQ(original.next(rng).raw(), resumed.next(resumedRng).raw());
}

// ---------------------------------------------------------------------
// Restored counters reconcile with the observed event stream

TEST(SnapStatsTest, RestoredCountersMatchEventStream)
{
    const core::SystemConfig config = core::SystemConfig::plbSystem();
    const u64 total = 3000;

    obs::setThreadId(1);
    obs::startTracing();
    core::System sys(config);
    const vm::VAddr base = setupHeap(sys);
    Rng rng(kSeed);
    auto stream = makeWorkingSet(base, kPages);
    const core::RunResult run = sys.run(*stream, total, rng);
    const std::vector<obs::Event> events = obs::stopTracing();

    snap::Snapshotter snapper;
    snapper.add(sys);
    const snap::Snapshot image = std::move(snapper).finish();

    core::System restored(config);
    setupHeap(restored);
    snap::Restorer restorer(image);
    restorer.restore(restored);
    restorer.finish();

    // The restored scalars are the originals...
    EXPECT_EQ(restored.references.value(), sys.references.value());
    EXPECT_EQ(restored.failedReferences.value(),
              sys.failedReferences.value());
    EXPECT_EQ(dumpOf(sys), dumpOf(restored));

    // ...and they reconcile with what the tracer observed: one
    // access span per issued reference.
    const u64 begins = static_cast<u64>(std::count_if(
        events.begin(), events.end(), [](const obs::Event &event) {
            return event.kind == obs::EventKind::AccessBegin;
        }));
    EXPECT_EQ(restored.references.value(), begins);
    EXPECT_EQ(restored.references.value(), run.completed + run.failed);
}

// ---------------------------------------------------------------------
// Warm-start sweeps: restoring the shared prefix image is invisible

TEST(SnapSweepTest, WarmStartIsBitIdenticalAcrossSeeds)
{
    farm::SweepCell cell;
    cell.model = "plb";
    cell.workload = "zipf";
    cell.config = core::SystemConfig::plbSystem();
    cell.pages = kPages;
    cell.references = 4000;
    cell.warmRefs = 4000;
    cell.warmSeed = 77;
    cell.makeStream = [](vm::VAddr base, u64 pages, u64 seed) {
        return std::make_unique<wl::ZipfPageStream>(base, pages, 0.8,
                                                    seed);
    };

    const auto image = farm::SweepRunner::buildWarmImage(cell);
    for (u64 seed = 1; seed <= 3; ++seed) {
        cell.seed = seed;
        cell.warmImage = nullptr;
        const farm::CellResult cold = farm::SweepRunner::runCell(cell);
        cell.warmImage = image;
        const farm::CellResult warm = farm::SweepRunner::runCell(cell);
        EXPECT_EQ(cold.statsDump, warm.statsDump) << "seed " << seed;
        EXPECT_EQ(cold.simCycles, warm.simCycles) << "seed " << seed;
        EXPECT_EQ(cold.completed, warm.completed) << "seed " << seed;
        EXPECT_EQ(cold.failed, warm.failed) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Options plumbing

TEST(SnapOptionsTest, FromOptions)
{
    Options options;
    options.set("snapshot_out", "out.snap");
    options.set("restore", "in.snap");
    options.set("snapshot_every", "5000");
    const snap::SnapshotOptions opts =
        snap::SnapshotOptions::fromOptions(options);
    EXPECT_EQ(opts.out, "out.snap");
    EXPECT_EQ(opts.restore, "in.snap");
    EXPECT_EQ(opts.every, 5000u);

    const snap::SnapshotOptions defaults =
        snap::SnapshotOptions::fromOptions(Options{});
    EXPECT_TRUE(defaults.out.empty());
    EXPECT_TRUE(defaults.restore.empty());
    EXPECT_EQ(defaults.every, 0u);
}

// ---------------------------------------------------------------------
// Format compatibility: the checked-in image at the current format
// version must keep loading. (Older images are rejected by the
// version check: v2 added frame refcounts and the CoW page set, v3
// the protection-key model's kernel key tables, v4 the frame
// allocator's touched-frames encoding, v5 the word-wide checksum.)

TEST(SnapGoldenTest, V5ImageStillRestores)
{
    // The golden recipe: a protection-key machine (so the checked-in
    // image exercises the key tables) shrunk along its bulky axes
    // (frame pool, cache line maps) so the image stays a few tens of
    // KB; 64-page heap, 2000 zipf references at seed 42, then System
    // + Rng snapshotted.
    const std::string path = dataPath("golden_v5.snap");
    core::SystemConfig config = core::SystemConfig::pkeySystem();
    config.frames = 1024;
    config.cache.sizeBytes = 8 * 1024;
    config.l2Enabled = false;
    const u64 prefix = 2000;

    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        core::System sys(config);
        const vm::VAddr base = setupHeap(sys);
        Rng rng(kSeed);
        wl::ZipfPageStream stream(base, kPages, 0.8, kSeed);
        sys.run(stream, prefix, rng);
        snap::Snapshotter snapper;
        snapper.add(sys);
        snapper.add(rng);
        std::move(snapper).finish().toFile(path);
        GTEST_SKIP() << "regenerated " << path;
    }

    ASSERT_TRUE(std::filesystem::exists(path))
        << "missing " << path
        << "; run with SASOS_GOLDEN_REGEN=1 to create it";

    core::System sys(config);
    const vm::VAddr base = setupHeap(sys);
    Rng rng(7);
    snap::Restorer restorer(snap::Snapshot::fromFile(path));
    restorer.restore(sys);
    restorer.restore(rng);
    restorer.finish();

    EXPECT_EQ(sys.references.value(), prefix);

    // Restoring rebuilds host-side state only (tag indexes, recency
    // lists), so saving again gives back the checked-in bytes.
    snap::Snapshotter resaver;
    resaver.add(sys);
    resaver.add(rng);
    EXPECT_TRUE(std::move(resaver).finish().bytes ==
                snap::Snapshot::fromFile(path).bytes)
        << "re-saved image differs from " << path;

    // The restored machine must still be a working machine.
    wl::ZipfPageStream stream(base, kPages, 0.8, kSeed);
    const core::RunResult run = sys.run(stream, 1000, rng);
    EXPECT_EQ(run.completed + run.failed, 1000u);
    EXPECT_EQ(sys.references.value(), prefix + 1000);
}

// ---------------------------------------------------------------------
// Crafted replacement and tag images. The LRU recency list and the
// index of wide sets are rebuilt from the image, so images
// that would make them disagree with the saved stamps or tags must be
// rejected, not loaded.

namespace
{

/** A full one-set LRU cache image: way i holds (tags[i], payload i)
 * and stamps[i], then the clock. */
std::vector<u8>
cacheImage(const std::vector<u64> &tags, const std::vector<u64> &stamps,
           u64 clock)
{
    snap::SnapWriter w;
    w.putTag("assoc");
    w.put64(1);
    w.put64(tags.size());
    for (std::size_t way = 0; way < tags.size(); ++way) {
        w.putBool(true);
        w.put64(tags[way]);
        w.put64(way);
    }
    w.putTag("stamps");
    w.put64(stamps.size());
    for (u64 stamp : stamps)
        w.put64(stamp);
    w.put64(clock);
    return std::move(w).seal();
}

/** A one-set cache image whose first two ways hold tag 7. */
std::vector<u8>
duplicateTagImage(std::size_t ways)
{
    std::vector<u64> tags, stamps;
    for (std::size_t way = 0; way < ways; ++way) {
        tags.push_back(way < 2 ? 7 : 100 + way);
        stamps.push_back(way + 1);
    }
    return cacheImage(tags, stamps, ways);
}

hw::AssocCache<u64, u64>
loadCache(std::size_t ways, const std::vector<u8> &image)
{
    hw::AssocCache<u64, u64> cache(1, ways, hw::PolicyKind::Lru);
    snap::SnapReader r(image);
    cache.load(
        r, [](snap::SnapReader &in) { return in.get64(); },
        [](snap::SnapReader &in) { return in.get64(); });
    return cache;
}

/** Tags 100.. in way order, so tag 100 + w sits in way w. */
std::vector<u64>
distinctTags(std::size_t ways)
{
    std::vector<u64> tags;
    for (std::size_t way = 0; way < ways; ++way)
        tags.push_back(100 + way);
    return tags;
}

} // namespace

TEST(SnapAssocDeathTest, StampAheadOfClockIsFatal)
{
    for (std::size_t ways : {4u, 16u, 128u}) {
        std::vector<u64> stamps(ways, 1);
        stamps[ways / 2] = 50;
        const std::vector<u8> image =
            cacheImage(distinctTags(ways), stamps, 49);
        EXPECT_DEATH(loadCache(ways, image),
                     "stamp 50 .* ahead of the clock 49")
            << ways << " ways";
    }
    // At the clock is fine.
    std::vector<u64> stamps(128, 1);
    stamps[3] = 49;
    auto cache = loadCache(128, cacheImage(distinctTags(128), stamps, 49));
    const auto victim = cache.insert(0, 1, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 100u);
}

TEST(SnapAssocDeathTest, DuplicateTagIsFatalInNarrowAndIndexedSets)
{
    // 4 ways takes the pairwise scan, 16 and 128 the index rebuild.
    for (std::size_t ways : {4u, 16u, 128u}) {
        EXPECT_DEATH(loadCache(ways, duplicateTagImage(ways)),
                     "duplicate tag in cache set 0")
            << ways << " ways";
    }
}

// ---------------------------------------------------------------------
// Crafted frame-allocator images: one per fatal in
// FrameAllocator::load. The base image (8 frames; frames 0 and 2 held,
// 1 and 3 stacked, 4..7 never used) loads cleanly.

namespace
{

struct FramesImage
{
    u64 capacity = 8;
    u64 inUse = 2;
    u64 run = 4;
    std::vector<u32> refCounts = {1, 0, 2, 0};
    std::vector<u64> stacked = {1, 3};
};

std::vector<u8>
framesImage(const FramesImage &f)
{
    snap::SnapWriter w;
    w.putTag("frames");
    w.put64(f.capacity);
    w.put64(f.inUse);
    w.put64(f.run);
    for (u32 refs : f.refCounts)
        w.put32(refs);
    w.put64(f.stacked.size());
    for (u64 frame : f.stacked)
        w.put64(frame);
    return std::move(w).seal();
}

void
loadFrames(const FramesImage &f, u64 capacity = 8)
{
    vm::FrameAllocator frames(capacity);
    snap::SnapReader r(framesImage(f));
    frames.load(r);
    r.finish();
}

} // namespace

TEST(SnapFramesTest, BaseImageLoadsAndResaves)
{
    const std::vector<u8> image = framesImage(FramesImage{});
    vm::FrameAllocator frames(8);
    snap::SnapReader r(image);
    frames.load(r);
    r.finish();
    EXPECT_EQ(frames.inUse(), 2u);
    EXPECT_EQ(frames.refCount(vm::Pfn(2)), 2u);
    snap::SnapWriter w;
    frames.save(w);
    EXPECT_EQ(std::move(w).seal(), image);
    // The stack comes out top first, then the never-used run.
    for (u64 expect : {3, 1, 4, 5})
        EXPECT_EQ(frames.allocate(), vm::Pfn(expect));
}

TEST(SnapFramesDeathTest, CapacityMismatchIsFatal)
{
    EXPECT_DEATH(loadFrames(FramesImage{}, 16),
                 "8 physical frames, this configuration has 16");
}

TEST(SnapFramesDeathTest, InUseMismatchIsFatal)
{
    FramesImage f;
    f.inUse = 3;
    EXPECT_DEATH(loadFrames(f), "claims 3 frames in use but holds 2");
}

TEST(SnapFramesDeathTest, RunBeyondCapacityIsFatal)
{
    FramesImage f;
    f.run = 9;
    f.refCounts = {1, 0, 2, 0, 0, 0, 0, 0, 0};
    EXPECT_DEATH(loadFrames(f),
                 "never-used run starts at frame 9 beyond capacity 8");
}

TEST(SnapFramesDeathTest, RunBeyondBytesLeftIsFatal)
{
    // Rejected before the refcount array is allocated.
    FramesImage f;
    f.capacity = u64{1} << 20;
    f.run = u64{1} << 20;
    f.refCounts = {};
    f.stacked = {};
    EXPECT_DEATH(loadFrames(f, u64{1} << 20),
                 "count 1048576 exceeds the 8 bytes remaining");
}

TEST(SnapFramesDeathTest, FreeCountMismatchIsFatal)
{
    FramesImage f;
    f.stacked = {1}; // frame 3 neither held nor free
    EXPECT_DEATH(loadFrames(f), "free stack carries 1 frames, expected 2");
}

TEST(SnapFramesDeathTest, StackedFrameAtOrAboveRunIsFatal)
{
    FramesImage f;
    f.stacked = {1, 4};
    EXPECT_DEATH(loadFrames(f),
                 "stacked free frame 4 at or above the never-used run at 4");
}

TEST(SnapFramesDeathTest, HeldStackedFrameIsFatal)
{
    FramesImage f;
    f.stacked = {1, 2};
    EXPECT_DEATH(loadFrames(f), "frame 2 both held and free");
}

TEST(SnapFramesDeathTest, DuplicateStackedFrameIsFatal)
{
    FramesImage f;
    f.stacked = {1, 1};
    EXPECT_DEATH(loadFrames(f), "frame 1 on the free stack twice");
}
