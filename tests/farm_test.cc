/**
 * @file
 * The sweep farm: campaign identity, the CellExecution slice /
 * checkpoint / resume algebra, the pipe wire protocol's corruption
 * defenses, and the coordinator's headline guarantee -- a farmed
 * campaign merges to results bit-identical to a serial SweepRunner
 * run, at any worker count, under chaos kills and under preempt-and-
 * migrate elasticity.
 *
 * The farm integration tests fork real worker processes; workers exit
 * through _exit and never touch gtest state. The checked-in
 * farm_frame_*.bin files double as the farm_fuzz seed corpus;
 * SASOS_GOLDEN_REGEN=1 regenerates them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "farm/campaign.hh"
#include "farm/coordinator.hh"
#include "farm/wire.hh"
#include "farm/worker.hh"
#include "sim/logging.hh"
#include "temp_path.hh"

using namespace sasos;

namespace
{

std::string
dataPath(const std::string &name)
{
    return std::string(SASOS_TEST_DATA_DIR) + "/" + name;
}

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

/** Small machine shape shared by every farm test cell: image sizes
 * stay tens of KB and cells run in milliseconds. */
core::SystemConfig
smallConfig(core::SystemConfig config)
{
    config.frames = 1024;
    config.cache.sizeBytes = 8 * 1024;
    config.l2Enabled = false;
    return config;
}

farm::StreamFactory
zipfFactory()
{
    return [](vm::VAddr base, u64 pages, u64 seed) {
        return std::make_unique<wl::ZipfPageStream>(base, pages, 0.8,
                                                    seed);
    };
}

farm::SweepCell
makeCell(u64 seed = 1, u64 refs = 4000)
{
    farm::SweepCell cell;
    cell.model = "plb";
    cell.workload = "zipf";
    cell.seed = seed;
    cell.config = smallConfig(core::SystemConfig::plbSystem());
    cell.pages = 64;
    cell.references = refs;
    cell.makeStream = zipfFactory();
    return cell;
}

/** Cells across all four protection models, clean and
 * fault-injected. */
std::vector<farm::SweepCell>
allModelCells(u64 refs)
{
    const std::vector<std::pair<std::string, core::SystemConfig>> models =
        {{"plb", core::SystemConfig::plbSystem()},
         {"page-group", core::SystemConfig::pageGroupSystem()},
         {"conventional", core::SystemConfig::conventionalSystem()},
         {"pkey", core::SystemConfig::pkeySystem()}};
    std::vector<farm::SweepCell> cells;
    for (const auto &[label, config] : models) {
        farm::SweepCell clean = makeCell(3, refs);
        clean.model = label;
        clean.config = smallConfig(config);
        cells.push_back(std::move(clean));

        farm::SweepCell injected = makeCell(7, refs);
        injected.model = label + "+faults";
        injected.config = smallConfig(config);
        injected.config.faults.enabled = true;
        injected.config.faults.seed = 7;
        injected.config.faults.rate = 0.02;
        cells.push_back(std::move(injected));
    }
    return cells;
}

void
expectIdentical(const std::vector<farm::CellResult> &serial,
                const farm::FarmResult &farmed)
{
    ASSERT_TRUE(farmed.ok) << farmed.error;
    ASSERT_EQ(farmed.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(farmed.results[i].id, serial[i].id);
        EXPECT_EQ(farmed.results[i].completed, serial[i].completed);
        EXPECT_EQ(farmed.results[i].failed, serial[i].failed);
        EXPECT_EQ(farmed.results[i].simCycles, serial[i].simCycles);
        EXPECT_EQ(farmed.results[i].statsDump, serial[i].statsDump)
            << "cell id " << serial[i].id << " (" << serial[i].model
            << ") diverged from the serial run";
    }
    // Chaos kills and migrations are not faults of the protocol: a
    // healthy farm never sees a duplicate, a poisoned frame or a
    // corrupt image, however many workers it loses.
    EXPECT_EQ(farmed.stats.duplicateResults, 0u);
    EXPECT_EQ(farmed.stats.poisonedFrames, 0u);
    EXPECT_EQ(farmed.stats.rejectedImages, 0u);
}

} // namespace

// ---------------------------------------------------------------------
// Campaign identity

TEST(CampaignTest, AutoIdsArePositional)
{
    std::vector<farm::SweepCell> cells = {makeCell(1), makeCell(2),
                                          makeCell(3)};
    const farm::Campaign campaign(cells);
    ASSERT_EQ(campaign.size(), 3u);
    for (u64 i = 0; i < 3; ++i) {
        EXPECT_EQ(campaign.cells()[i].id, i);
        EXPECT_EQ(campaign.indexOf(i), i);
        ASSERT_NE(campaign.byId(i), nullptr);
        EXPECT_EQ(campaign.byId(i)->seed, i + 1);
    }
}

TEST(CampaignTest, ExplicitIdsAreKept)
{
    std::vector<farm::SweepCell> cells = {makeCell(1), makeCell(2)};
    cells[0].id = 100;
    cells[1].id = 7;
    const farm::Campaign campaign(cells);
    EXPECT_EQ(campaign.indexOf(100), 0u);
    EXPECT_EQ(campaign.indexOf(7), 1u);
    EXPECT_EQ(campaign.byId(42), nullptr);
}

/** Regression: duplicate cell ids once slipped through silently and
 * would have made id-keyed retry/dedup ambiguous; construction must
 * reject them. */
TEST(CampaignTest, DuplicateIdsAreFatal)
{
    ScopedFatalThrow bridge;
    std::vector<farm::SweepCell> cells = {makeCell(1), makeCell(2)};
    cells[0].id = 5;
    cells[1].id = 5;
    EXPECT_THROW(farm::Campaign{cells}, FatalRejection);

    // An explicit id colliding with a resolved auto id is the sneaky
    // variant of the same bug.
    std::vector<farm::SweepCell> mixed = {makeCell(1), makeCell(2)};
    mixed[1].id = 0;
    EXPECT_THROW(farm::Campaign{mixed}, FatalRejection);
}

TEST(CampaignTest, UnknownIdLookupIsFatal)
{
    ScopedFatalThrow bridge;
    const farm::Campaign campaign(std::vector<farm::SweepCell>{makeCell()});
    EXPECT_THROW(campaign.indexOf(99), FatalRejection);
}

// ---------------------------------------------------------------------
// The trajectory stamp: git's view of the checkout, dirty or not.

namespace
{

/** Run a shell command in `dir`; true when it exits 0. */
bool
shellIn(const std::filesystem::path &dir, const std::string &command)
{
    const std::string line =
        "cd '" + dir.string() + "' && " + command + " >/dev/null 2>&1";
    return std::system(line.c_str()) == 0;
}

} // namespace

TEST(HeadCommitTest, StampsCleanDirtyAndOutsideARepository)
{
    if (std::system("git --version >/dev/null 2>&1") != 0)
        GTEST_SKIP() << "git is not runnable";
    const std::filesystem::path dir = test::uniqueTempPath("repo");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EXPECT_EQ(farm::headCommit(dir), "unknown");

    ASSERT_TRUE(shellIn(dir, "git init -q && echo a > tracked && "
                             "git add tracked && git -c user.name=t "
                             "-c user.email=t@example.com "
                             "-c commit.gpgsign=false commit -q -m init"));
    const std::string clean = farm::headCommit(dir);
    EXPECT_EQ(clean.size(), 12u) << clean;
    EXPECT_EQ(clean.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << clean;

    // An untracked file leaves the stamp clean; an edit to a tracked
    // one marks it.
    std::ofstream(dir / "untracked") << "u\n";
    EXPECT_EQ(farm::headCommit(dir), clean);
    std::ofstream(dir / "tracked") << "b\n";
    EXPECT_EQ(farm::headCommit(dir), clean + "-dirty");
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// CellExecution: slicing and checkpoint/resume must not change the
// answer (the algebra the farm's elasticity is built on).

TEST(CellExecutionTest, SlicedStepsMatchStraightRun)
{
    const farm::SweepCell cell = makeCell(11, 5000);
    const farm::CellResult straight = farm::SweepRunner::runCell(cell, 1);

    farm::CellExecution exec(cell, 1);
    while (!exec.done())
        exec.step(700); // Deliberately not a divisor of 5000.
    const farm::CellResult sliced = exec.finish();

    EXPECT_EQ(sliced.statsDump, straight.statsDump);
    EXPECT_EQ(sliced.simCycles, straight.simCycles);
    EXPECT_EQ(sliced.completed, straight.completed);
    EXPECT_EQ(sliced.failed, straight.failed);
}

TEST(CellExecutionTest, CheckpointResumeMatchesStraightRun)
{
    const farm::SweepCell cell = makeCell(12, 5000);
    const farm::CellResult straight = farm::SweepRunner::runCell(cell, 1);

    farm::CellExecution first(cell, 1);
    first.step(2000);
    const snap::Snapshot image = first.checkpoint();

    farm::CellExecution second(cell, 1, farm::CellExecution::kForRestore);
    second.resume(image, first.refsDone(), first.completed(),
                  first.failed());
    second.step(5000);
    const farm::CellResult resumed = second.finish();

    EXPECT_EQ(resumed.statsDump, straight.statsDump);
    EXPECT_EQ(resumed.simCycles, straight.simCycles);
}

TEST(CellExecutionTest, RepeatedMigrationMatchesStraightRun)
{
    const farm::SweepCell cell = makeCell(13, 6000);
    const farm::CellResult straight = farm::SweepRunner::runCell(cell, 1);

    // Three hops, as if the cell migrated across three workers.
    auto hop = std::make_unique<farm::CellExecution>(cell, 1);
    hop->step(1500);
    for (int i = 0; i < 2; ++i) {
        const snap::Snapshot image = hop->checkpoint();
        auto next = std::make_unique<farm::CellExecution>(
            cell, 1, farm::CellExecution::kForRestore);
        next->resume(image, hop->refsDone(), hop->completed(),
                     hop->failed());
        next->step(1500);
        hop = std::move(next);
    }
    hop->step(cell.references);
    const farm::CellResult migrated = hop->finish();

    EXPECT_EQ(migrated.statsDump, straight.statsDump);
    EXPECT_EQ(migrated.simCycles, straight.simCycles);
}

// ---------------------------------------------------------------------
// Wire protocol: round trips

TEST(WireTest, EveryKindRoundTrips)
{
    farm::Message hello;
    hello.kind = farm::MsgKind::Hello;
    hello.worker = 3;
    farm::Message back = farm::decodeMessage(farm::encodeMessage(hello));
    EXPECT_EQ(back.kind, farm::MsgKind::Hello);
    EXPECT_EQ(back.worker, 3u);

    farm::Message assign;
    assign.kind = farm::MsgKind::Assign;
    assign.cell = 17;
    assign.checkpointEvery = 5000;
    assign.preemptFirst = true;
    back = farm::decodeMessage(farm::encodeMessage(assign));
    EXPECT_EQ(back.kind, farm::MsgKind::Assign);
    EXPECT_EQ(back.cell, 17u);
    EXPECT_EQ(back.checkpointEvery, 5000u);
    EXPECT_TRUE(back.preemptFirst);

    farm::Message resume;
    resume.kind = farm::MsgKind::Resume;
    resume.cell = 4;
    resume.checkpointEvery = 100;
    resume.refsDone = 2000;
    resume.completed = 1999;
    resume.failed = 1;
    resume.image = {1, 2, 3, 4, 5};
    back = farm::decodeMessage(farm::encodeMessage(resume));
    EXPECT_EQ(back.kind, farm::MsgKind::Resume);
    EXPECT_EQ(back.refsDone, 2000u);
    EXPECT_EQ(back.image, resume.image);

    farm::Message image;
    image.kind = farm::MsgKind::Image;
    image.cell = 2;
    image.refsDone = 1000;
    image.completed = 990;
    image.failed = 10;
    image.stopped = true;
    image.image = {9, 8, 7};
    back = farm::decodeMessage(farm::encodeMessage(image));
    EXPECT_EQ(back.kind, farm::MsgKind::Image);
    EXPECT_TRUE(back.stopped);
    EXPECT_EQ(back.image, image.image);

    farm::Message done;
    done.kind = farm::MsgKind::Done;
    done.cell = 6;
    done.result.model = "plb";
    done.result.workload = "zipf";
    done.result.seed = 3;
    done.result.references = 4000;
    done.result.completed = 3990;
    done.result.failed = 10;
    done.result.simCycles = 123456;
    done.result.statsDump = "stats\nlines\n";
    done.result.wallSeconds = 0.25;
    done.result.refsPerSec = 16000.0;
    back = farm::decodeMessage(farm::encodeMessage(done));
    EXPECT_EQ(back.kind, farm::MsgKind::Done);
    EXPECT_EQ(back.result.id, 6u);
    EXPECT_EQ(back.result.statsDump, done.result.statsDump);
    EXPECT_EQ(back.result.simCycles, 123456u);

    farm::Message shutdown;
    shutdown.kind = farm::MsgKind::Shutdown;
    back = farm::decodeMessage(farm::encodeMessage(shutdown));
    EXPECT_EQ(back.kind, farm::MsgKind::Shutdown);
}

// ---------------------------------------------------------------------
// Wire protocol: corruption attacks (mirroring snap_test's, because
// the frames reuse the same envelope and must reject the same way)

namespace
{

std::vector<u8>
sampleFrame()
{
    farm::Message done;
    done.kind = farm::MsgKind::Done;
    done.cell = 1;
    done.result.model = "plb";
    done.result.workload = "zipf";
    done.result.statsDump = "some stats text for padding\n";
    return farm::encodeMessage(done);
}

} // namespace

TEST(WireCorruptionTest, TruncationsAreRejected)
{
    ScopedFatalThrow bridge;
    const std::vector<u8> valid = sampleFrame();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{31}, std::size_t{32},
          valid.size() / 2, valid.size() - 1}) {
        std::vector<u8> cut = valid;
        cut.resize(keep);
        EXPECT_THROW(farm::decodeMessage(cut), FatalRejection)
            << "truncated to " << keep << " bytes";
    }
}

TEST(WireCorruptionTest, BitFlipsAreRejected)
{
    ScopedFatalThrow bridge;
    const std::vector<u8> valid = sampleFrame();
    std::vector<std::size_t> positions = {0, 9, 17, 25};
    for (std::size_t at = 32; at < valid.size();
         at += valid.size() / 13 + 1)
        positions.push_back(at);
    for (const std::size_t at : positions) {
        std::vector<u8> flipped = valid;
        flipped[at] ^= 0x10;
        EXPECT_THROW(farm::decodeMessage(flipped), FatalRejection)
            << "flip at byte " << at;
    }
}

TEST(WireCorruptionTest, FutureVersionIsRejected)
{
    ScopedFatalThrow bridge;
    std::vector<u8> frame = sampleFrame();
    frame[8] = 0xFF; // version field, little-endian low byte
    EXPECT_THROW(farm::decodeMessage(frame), FatalRejection);
}

TEST(WireCorruptionTest, HostileLengthIsRejected)
{
    ScopedFatalThrow bridge;
    std::vector<u8> frame = sampleFrame();
    for (int i = 0; i < 8; ++i)
        frame[16 + i] = 0xFF; // promises ~2^64 payload bytes
    EXPECT_THROW(farm::decodeMessage(frame), FatalRejection);
}

TEST(WireCorruptionTest, TrailingBytesAreRejected)
{
    ScopedFatalThrow bridge;
    // A frame whose payload continues past the message: built by
    // sealing a Done message plus stray extra bytes.
    farm::Message hello;
    hello.kind = farm::MsgKind::Hello;
    std::vector<u8> frame = farm::encodeMessage(hello);
    // Append a byte and fix nothing: checksum now fails.
    frame.push_back(0x00);
    EXPECT_THROW(farm::decodeMessage(frame), FatalRejection);
}

TEST(WireCorruptionTest, UnknownKindIsRejected)
{
    ScopedFatalThrow bridge;
    // 0 and 8 border the valid range, 4 is the retired Preempt kind
    // inside it, 99 is far out.
    for (const u8 kind : {u8{0}, u8{4}, u8{8}, u8{99}}) {
        snap::SnapWriter w;
        w.putTag("farm.msg");
        w.put8(kind);
        w.put64(0); // The cell id a Preempt carried.
        EXPECT_THROW(farm::decodeMessage(std::move(w).seal()),
                     FatalRejection)
            << "kind " << unsigned{kind};
    }
}

TEST(WireCorruptionTest, WrongTagIsRejected)
{
    ScopedFatalThrow bridge;
    snap::SnapWriter w;
    w.putTag("not.farm");
    w.put8(1);
    w.put64(0);
    EXPECT_THROW(farm::decodeMessage(std::move(w).seal()), FatalRejection);
}

TEST(WireCorruptionTest, OverLongWellFormedFrameIsRejected)
{
    ScopedFatalThrow bridge;
    // A frame that is envelope-valid but bigger than the farm's
    // ceiling must still be refused by decodeMessage's size check.
    std::vector<u8> frame(farm::kMaxFrameBytes + 1, 0);
    EXPECT_THROW(farm::decodeMessage(frame), FatalRejection);
}

// ---------------------------------------------------------------------
// FrameBuffer reassembly

TEST(FrameBufferTest, ReassemblesByteAtATime)
{
    const std::vector<u8> frame = sampleFrame();
    farm::FrameBuffer buffer;
    std::vector<u8> out;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        EXPECT_EQ(buffer.next(out), 0)
            << "frame extracted before byte " << i << " arrived";
        buffer.feed(&frame[i], 1);
    }
    ASSERT_EQ(buffer.next(out), 1);
    EXPECT_EQ(out, frame);
    EXPECT_EQ(buffer.next(out), 0);
    EXPECT_EQ(buffer.pending(), 0u);
}

TEST(FrameBufferTest, ExtractsBackToBackFrames)
{
    const std::vector<u8> one = sampleFrame();
    farm::Message hello;
    hello.kind = farm::MsgKind::Hello;
    hello.worker = 5;
    const std::vector<u8> two = farm::encodeMessage(hello);

    std::vector<u8> joined = one;
    joined.insert(joined.end(), two.begin(), two.end());

    farm::FrameBuffer buffer;
    buffer.feed(joined.data(), joined.size());
    std::vector<u8> out;
    ASSERT_EQ(buffer.next(out), 1);
    EXPECT_EQ(out, one);
    ASSERT_EQ(buffer.next(out), 1);
    EXPECT_EQ(out, two);
    EXPECT_EQ(buffer.next(out), 0);
}

TEST(FrameBufferTest, PoisonsOnBadMagic)
{
    farm::FrameBuffer buffer;
    const std::vector<u8> garbage(64, 0xAB);
    buffer.feed(garbage.data(), garbage.size());
    std::vector<u8> out;
    EXPECT_EQ(buffer.next(out), -1);
    EXPECT_TRUE(buffer.poisoned());
    EXPECT_FALSE(buffer.error().empty());
    // Poison is permanent: feeding a valid frame cannot recover it.
    const std::vector<u8> valid = sampleFrame();
    buffer.feed(valid.data(), valid.size());
    EXPECT_EQ(buffer.next(out), -1);
}

TEST(FrameBufferTest, PoisonsOnHostileLengthHeader)
{
    std::vector<u8> frame = sampleFrame();
    for (int i = 0; i < 8; ++i)
        frame[16 + i] = 0xFF;
    farm::FrameBuffer buffer;
    buffer.feed(frame.data(), frame.size());
    std::vector<u8> out;
    EXPECT_EQ(buffer.next(out), -1);
    EXPECT_TRUE(buffer.poisoned());
}

// ---------------------------------------------------------------------
// Image hand-off preflight

TEST(PreflightTest, AcceptsValidAndNamesViolations)
{
    const farm::SweepCell cell = makeCell(21, 2000);
    farm::CellExecution exec(cell, 1);
    exec.step(1000);
    const std::vector<u8> valid = exec.checkpoint().bytes;
    EXPECT_TRUE(snap::preflightEnvelope(valid).empty());

    std::vector<u8> truncated = valid;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(snap::preflightEnvelope(truncated).empty());

    std::vector<u8> flipped = valid;
    flipped[valid.size() - 1] ^= 0x01;
    EXPECT_FALSE(snap::preflightEnvelope(flipped).empty());

    std::vector<u8> badMagic = valid;
    badMagic[0] ^= 0xFF;
    EXPECT_FALSE(snap::preflightEnvelope(badMagic).empty());

    std::vector<u8> badVersion = valid;
    badVersion[8] = 0xFF;
    EXPECT_FALSE(snap::preflightEnvelope(badVersion).empty());

    std::vector<u8> badLength = valid;
    for (int i = 0; i < 8; ++i)
        badLength[16 + i] = 0xFF;
    EXPECT_FALSE(snap::preflightEnvelope(badLength).empty());

    EXPECT_FALSE(snap::preflightEnvelope({}).empty());
}

// ---------------------------------------------------------------------
// The farm itself: every path must land on the serial answer.

TEST(FarmTest, EmptyCampaignIsOkAndForksNothing)
{
    const farm::Campaign campaign;
    farm::FarmOptions options;
    const farm::FarmResult farmed = farm::runFarm(campaign, options);
    EXPECT_TRUE(farmed.ok);
    EXPECT_TRUE(farmed.results.empty());
    EXPECT_EQ(farmed.stats.forks, 0u);
}

TEST(FarmTest, FarmedMatchesSerialAtEveryWidth)
{
    std::vector<farm::SweepCell> cells;
    for (u64 seed = 1; seed <= 6; ++seed)
        cells.push_back(makeCell(seed, 3000));
    const farm::Campaign campaign(std::move(cells));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);

    for (unsigned workers : {1u, 2u, 3u, 5u}) {
        farm::FarmOptions options;
        options.workers = workers;
        const farm::FarmResult farmed = farm::runFarm(campaign, options);
        expectIdentical(serial, farmed);
        EXPECT_EQ(farmed.stats.forks, workers);
        EXPECT_EQ(farmed.stats.deaths, 0u);
    }
}

TEST(FarmTest, AllModelsCleanAndInjectedMatchSerial)
{
    const farm::Campaign campaign(allModelCells(3000));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);
    farm::FarmOptions options;
    options.workers = 3;
    options.checkpointEvery = 1000;
    expectIdentical(serial, farm::runFarm(campaign, options));
}

TEST(FarmTest, MoreWorkersThanCells)
{
    const farm::Campaign campaign(
        std::vector<farm::SweepCell>{makeCell(1, 3000), makeCell(2, 3000)});
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);
    farm::FarmOptions options;
    options.workers = 6; // Four workers never see work.
    const farm::FarmResult farmed = farm::runFarm(campaign, options);
    expectIdentical(serial, farmed);
    EXPECT_EQ(farmed.stats.forks, 6u);
}

TEST(FarmChaosTest, EveryCellKilledOnceStillBitIdentical)
{
    std::vector<farm::SweepCell> cells;
    for (u64 seed = 1; seed <= 5; ++seed)
        cells.push_back(makeCell(seed, 4000));
    const farm::Campaign campaign(std::move(cells));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);

    farm::FarmOptions options;
    options.workers = 3;
    options.checkpointEvery = 1000;
    options.killRate = 1.0; // Every cell's worker dies once.
    options.killSeed = 42;
    const farm::FarmResult farmed = farm::runFarm(campaign, options);
    expectIdentical(serial, farmed);
    EXPECT_EQ(farmed.stats.chaosKills, campaign.size());
    EXPECT_GE(farmed.stats.retries, campaign.size());
    EXPECT_GT(farmed.stats.forks, 3u) << "deaths must respawn workers";
}

TEST(FarmChaosTest, KillsWithoutCheckpointsRestartFromScratch)
{
    std::vector<farm::SweepCell> cells;
    for (u64 seed = 1; seed <= 3; ++seed)
        cells.push_back(makeCell(seed, 3000));
    const farm::Campaign campaign(std::move(cells));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);

    farm::FarmOptions options;
    options.workers = 2;
    options.checkpointEvery = 0; // No images: recovery = restart.
    options.killRate = 1.0;
    options.killSeed = 9;
    const farm::FarmResult farmed = farm::runFarm(campaign, options);
    expectIdentical(serial, farmed);
    EXPECT_EQ(farmed.stats.chaosKills, campaign.size());
    EXPECT_EQ(farmed.stats.resumes, 0u);
}

TEST(FarmMigrateTest, PreemptMigrateResumeRoundTrip)
{
    std::vector<farm::SweepCell> cells;
    for (u64 seed = 1; seed <= 4; ++seed)
        cells.push_back(makeCell(seed, 4000));
    const farm::Campaign campaign(std::move(cells));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);

    farm::FarmOptions options;
    options.workers = 3;
    options.checkpointEvery = 1000;
    options.migrateRate = 1.0; // Preempt every cell at first image.
    options.killSeed = 5;
    const farm::FarmResult farmed = farm::runFarm(campaign, options);
    expectIdentical(serial, farmed);
    EXPECT_EQ(farmed.stats.preempts, campaign.size());
    EXPECT_EQ(farmed.stats.migrations, campaign.size());
    EXPECT_EQ(farmed.stats.resumes, campaign.size());
    EXPECT_EQ(farmed.stats.deaths, 0u)
        << "migration is the graceful path; nothing should die";
}

TEST(FarmTest, ChaosAndMigrationTogether)
{
    std::vector<farm::SweepCell> cells;
    for (u64 seed = 1; seed <= 6; ++seed)
        cells.push_back(makeCell(seed, 3000));
    const farm::Campaign campaign(std::move(cells));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);

    farm::FarmOptions options;
    options.workers = 4;
    options.checkpointEvery = 800;
    options.killRate = 0.5;
    options.migrateRate = 0.5;
    options.killSeed = 1234;
    expectIdentical(serial, farm::runFarm(campaign, options));
}

TEST(FarmTest, WarmStartCellsFarmIdentically)
{
    farm::SweepCell seedCell = makeCell(31, 3000);
    seedCell.warmRefs = 2000;
    seedCell.warmSeed = 99;
    const std::shared_ptr<const snap::Snapshot> image =
        farm::SweepRunner::buildWarmImage(seedCell);

    std::vector<farm::SweepCell> cells;
    for (u64 seed = 31; seed <= 34; ++seed) {
        farm::SweepCell cell = seedCell;
        cell.seed = seed;
        cell.warmImage = image;
        cells.push_back(std::move(cell));
    }
    const farm::Campaign campaign(std::move(cells));
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);

    farm::FarmOptions options;
    options.workers = 2;
    options.checkpointEvery = 1000;
    options.killRate = 1.0;
    options.killSeed = 3;
    expectIdentical(serial, farm::runFarm(campaign, options));
}

TEST(FarmWatchdogTest, SilentCellTimesOutUntilItsAttemptsRunOut)
{
    // Without checkpoints a worker says nothing until its cell is
    // done, and this cell runs for seconds: the watchdog must kill
    // every attempt, and the third assignment gives the cell up.
    const farm::Campaign campaign(
        std::vector<farm::SweepCell>{makeCell(1, 1'000'000'000)});
    farm::FarmOptions options;
    options.workers = 1;
    options.checkpointEvery = 0;
    options.timeoutSec = 0.2;
    options.maxAttempts = 2;
    const farm::FarmResult farmed = farm::runFarm(campaign, options);
    EXPECT_FALSE(farmed.ok);
    EXPECT_NE(farmed.error.find("exceeded 2 attempts"), std::string::npos)
        << farmed.error;
    EXPECT_EQ(farmed.stats.retries, 2u);
    // A fresh worker can also time out before its Hello arrives, so
    // only the lower bound is exact; every death is a timeout.
    EXPECT_GE(farmed.stats.timeouts, 2u);
    EXPECT_EQ(farmed.stats.deaths, farmed.stats.timeouts);
    EXPECT_EQ(farmed.stats.chaosKills, 0u);
    EXPECT_EQ(farmed.stats.duplicateResults, 0u);
    EXPECT_EQ(farmed.stats.poisonedFrames, 0u);
    EXPECT_EQ(farmed.stats.rejectedImages, 0u);
}

TEST(FarmOptionsTest, OutOfRangeKnobsAreFatal)
{
    // Only parses the keys: a rejected worker count must never reach
    // a fork, and 2^32 + 1 must not wrap to one worker.
    const std::pair<const char *, const char *> bad[] = {
        {"farm_workers", "1025"},
        {"farm_workers", "100000"},
        {"farm_workers", "4294967297"},
        {"farm_max_attempts", "0"},
        {"farm_max_attempts", "4294967296"},
        {"farm_kill_rate", "-0.1"},
        {"farm_kill_rate", "1.5"},
        {"farm_migrate_rate", "2"},
        {"farm_migrate_rate", "nan"},
        {"farm_timeout", "0"},
        {"farm_timeout", "-1"},
    };
    for (const auto &[key, value] : bad) {
        Options options;
        options.set(key, value);
        EXPECT_EXIT((void)farm::FarmOptions::fromOptions(options),
                    ::testing::ExitedWithCode(1),
                    std::string("option '") + key + "'")
            << key << "=" << value;
    }

    Options options;
    options.set("farm_workers", "1024");
    options.set("farm_max_attempts", "4294967295");
    options.set("farm_kill_rate", "0");
    options.set("farm_migrate_rate", "1");
    options.set("farm_timeout", "0.5");
    const farm::FarmOptions o = farm::FarmOptions::fromOptions(options);
    EXPECT_EQ(o.workers, 1024u);
    EXPECT_EQ(o.maxAttempts, 4294967295u);
    EXPECT_EQ(o.killRate, 0.0);
    EXPECT_EQ(o.migrateRate, 1.0);
    EXPECT_EQ(o.timeoutSec, 0.5);
}

// ---------------------------------------------------------------------
// The checked-in wire-frame corpus: golden decode check and the
// farm_fuzz seed corpus in one. SASOS_GOLDEN_REGEN=1 regenerates.

TEST(FarmGoldenTest, FrameCorpusDecodes)
{
    struct Sample
    {
        const char *name;
        farm::MsgKind kind;
    };
    const std::vector<Sample> samples = {
        {"farm_frame_hello.bin", farm::MsgKind::Hello},
        {"farm_frame_assign.bin", farm::MsgKind::Assign},
        {"farm_frame_resume.bin", farm::MsgKind::Resume},
        {"farm_frame_image.bin", farm::MsgKind::Image},
        {"farm_frame_done.bin", farm::MsgKind::Done},
        {"farm_frame_shutdown.bin", farm::MsgKind::Shutdown},
    };

    if (std::getenv("SASOS_GOLDEN_REGEN") != nullptr) {
        // Real frames, captured from a live execution: the Resume and
        // Image samples carry a genuine checkpoint image so fuzz
        // mutations explore the nested-envelope path.
        const farm::SweepCell cell = makeCell(1, 2000);
        farm::CellExecution exec(cell, 1);
        exec.step(1000);
        const std::vector<u8> snap = exec.checkpoint().bytes;

        auto write = [&](const char *name, const farm::Message &msg) {
            const std::vector<u8> frame = farm::encodeMessage(msg);
            std::ofstream os(dataPath(name), std::ios::binary);
            os.write(reinterpret_cast<const char *>(frame.data()),
                     static_cast<std::streamsize>(frame.size()));
        };

        farm::Message hello;
        hello.kind = farm::MsgKind::Hello;
        hello.worker = 0;
        write("farm_frame_hello.bin", hello);

        farm::Message assign;
        assign.kind = farm::MsgKind::Assign;
        assign.cell = 0;
        assign.checkpointEvery = 1000;
        write("farm_frame_assign.bin", assign);

        farm::Message resume;
        resume.kind = farm::MsgKind::Resume;
        resume.cell = 0;
        resume.checkpointEvery = 1000;
        resume.refsDone = exec.refsDone();
        resume.completed = exec.completed();
        resume.failed = exec.failed();
        resume.image = snap;
        write("farm_frame_resume.bin", resume);

        farm::Message image;
        image.kind = farm::MsgKind::Image;
        image.cell = 0;
        image.refsDone = exec.refsDone();
        image.completed = exec.completed();
        image.failed = exec.failed();
        image.image = snap;
        write("farm_frame_image.bin", image);

        farm::Message done;
        done.kind = farm::MsgKind::Done;
        done.cell = 0;
        farm::CellExecution rest(cell, 1);
        rest.step(cell.references);
        done.result = rest.finish();
        // Host timings would make the sample differ on every run.
        done.result.wallSeconds = 0;
        done.result.refsPerSec = 0;
        write("farm_frame_done.bin", done);

        farm::Message shutdown;
        shutdown.kind = farm::MsgKind::Shutdown;
        write("farm_frame_shutdown.bin", shutdown);

        GTEST_SKIP() << "regenerated the farm frame corpus";
    }

    for (const Sample &sample : samples) {
        const std::string path = dataPath(sample.name);
        ASSERT_TRUE(std::filesystem::exists(path))
            << "missing " << path
            << "; run with SASOS_GOLDEN_REGEN=1 to create it";
        std::ifstream is(path, std::ios::binary);
        std::vector<u8> frame(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        const farm::Message message = farm::decodeMessage(frame);
        EXPECT_EQ(message.kind, sample.kind) << sample.name;
    }
}

// ---------------------------------------------------------------------
// Direct worker-protocol round trip: drive workerMain over real pipes
// from the test, covering what a farm run does not show -- a stopped
// cell resumed on the worker that stopped it (the coordinator prefers
// another) and the worker's exit status after Shutdown.

namespace
{

/** gcov's flush hook; present only in --coverage builds. The forked
 * worker exits via _exit and would otherwise drop its counters. */
extern "C" void __gcov_dump(void) __attribute__((weak));

struct WorkerHarness
{
    pid_t pid = -1;
    int rfd = -1; ///< worker -> test frames
    int wfd = -1; ///< test -> worker frames

    explicit WorkerHarness(const farm::Campaign &campaign)
    {
        int toWorker[2];
        int fromWorker[2];
        if (::pipe(toWorker) != 0 || ::pipe(fromWorker) != 0)
            return;
        pid = ::fork();
        if (pid == 0) {
            ::close(toWorker[1]);
            ::close(fromWorker[0]);
            const int status =
                farm::workerMain(campaign, toWorker[0], fromWorker[1], 0);
            if (__gcov_dump)
                __gcov_dump();
            ::_exit(status);
        }
        ::close(toWorker[0]);
        ::close(fromWorker[1]);
        rfd = fromWorker[0];
        wfd = toWorker[1];
    }

    ~WorkerHarness()
    {
        if (wfd >= 0)
            ::close(wfd);
        if (rfd >= 0)
            ::close(rfd);
        if (pid > 0)
            ::waitpid(pid, nullptr, 0);
    }

    bool
    send(const farm::Message &message)
    {
        return farm::writeFrame(wfd, farm::encodeMessage(message));
    }

    /** Read and decode the next frame (blocking). */
    bool
    recv(farm::Message &message)
    {
        std::vector<u8> frame;
        std::string err;
        if (farm::readFrame(rfd, frame, err) != farm::ReadStatus::Frame)
            return false;
        message = farm::decodeMessage(frame);
        return true;
    }
};

} // namespace

TEST(WorkerProtocolTest, PreemptFirstOrderStopsAtFirstCheckpoint)
{
    const farm::Campaign campaign(
        std::vector<farm::SweepCell>{makeCell(1, 4000)});
    const std::vector<farm::CellResult> serial =
        farm::SweepRunner(1).run(campaign);
    WorkerHarness worker(campaign);
    ASSERT_GT(worker.pid, 0);

    farm::Message message;
    ASSERT_TRUE(worker.recv(message));
    EXPECT_EQ(message.kind, farm::MsgKind::Hello);

    farm::Message assign;
    assign.kind = farm::MsgKind::Assign;
    assign.cell = 0;
    assign.checkpointEvery = 1000;
    assign.preemptFirst = true;
    ASSERT_TRUE(worker.send(assign));

    // Deterministic: exactly one image, flagged stopped, at the
    // first slice boundary.
    farm::Message stopped;
    ASSERT_TRUE(worker.recv(stopped));
    ASSERT_EQ(stopped.kind, farm::MsgKind::Image);
    EXPECT_TRUE(stopped.stopped);
    EXPECT_EQ(stopped.refsDone, 1000u);

    // Resume the stopped cell from its image on the same worker; the
    // finished result must match the serial run.
    farm::Message resume;
    resume.kind = farm::MsgKind::Resume;
    resume.cell = 0;
    resume.checkpointEvery = 0; // No more images: straight to Done.
    resume.refsDone = stopped.refsDone;
    resume.completed = stopped.completed;
    resume.failed = stopped.failed;
    resume.image = stopped.image;
    ASSERT_TRUE(worker.send(resume));

    ASSERT_TRUE(worker.recv(message));
    ASSERT_EQ(message.kind, farm::MsgKind::Done);
    EXPECT_EQ(message.result.id, 0u);
    EXPECT_EQ(message.result.statsDump, serial[0].statsDump);
    EXPECT_EQ(message.result.simCycles, serial[0].simCycles);

    farm::Message shutdown;
    shutdown.kind = farm::MsgKind::Shutdown;
    ASSERT_TRUE(worker.send(shutdown));

    int status = 0;
    ASSERT_EQ(::waitpid(worker.pid, &status, 0), worker.pid);
    worker.pid = -1;
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}
