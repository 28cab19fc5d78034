/**
 * @file
 * Tests for trace recording, round-tripping and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "trace/trace.hh"

#include "temp_path.hh"

using namespace sasos;
using namespace sasos::trace;

TEST(TraceTest, BinaryRoundTrip)
{
    const std::string path = test::uniqueTempPath("roundtrip.trc");
    std::vector<TraceRecord> records = {
        {TraceOp::Load, 1, 0x1000},
        {TraceOp::Store, 2, 0xdeadbeef000},
        {TraceOp::IFetch, 1, 0x400000},
        {TraceOp::Switch, 2, 0},
    };
    {
        TraceWriter writer(path);
        for (const TraceRecord &record : records)
            writer.append(record);
        EXPECT_EQ(writer.count(), records.size());
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.count(), records.size());
    TraceRecord record;
    for (const TraceRecord &expected : records) {
        ASSERT_TRUE(reader.next(record));
        EXPECT_EQ(record, expected);
    }
    EXPECT_FALSE(reader.next(record));
    std::remove(path.c_str());
}

TEST(TraceTest, HeaderCountPatchedOnClose)
{
    const std::string path = test::uniqueTempPath("count.trc");
    {
        TraceWriter writer(path);
        writer.append(TraceOp::Load, 1, vm::VAddr(0x10));
        writer.append(TraceOp::Load, 1, vm::VAddr(0x20));
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.count(), 2u);
    std::remove(path.c_str());
}

TEST(TraceTest, TextRoundTrip)
{
    const TraceRecord record{TraceOp::Store, 7, 0xabc000};
    const std::string line = toText(record);
    EXPECT_EQ(line, "store d=7 0xabc000");
    EXPECT_EQ(fromText(line), record);

    const TraceRecord sw{TraceOp::Switch, 3, 0};
    EXPECT_EQ(fromText(toText(sw)), sw);
}

TEST(TraceTest, OpNames)
{
    EXPECT_STREQ(toString(TraceOp::Load), "load");
    EXPECT_STREQ(toString(TraceOp::Store), "store");
    EXPECT_STREQ(toString(TraceOp::IFetch), "ifetch");
    EXPECT_STREQ(toString(TraceOp::Switch), "switch");
}

TEST(TraceDeathTest, RejectsNonTraceFile)
{
    const std::string path = test::uniqueTempPath("nottrace.bin");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("this is not a trace at all, sorry!!", f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "not a sasos trace");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, RejectsMissingHeader)
{
    const std::string path = test::uniqueTempPath("shortheader.trc");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fwrite("SASTRC", 1, 6, f); // shorter than a header
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "has no header");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, RejectsTruncatedPayload)
{
    const std::string path = test::uniqueTempPath("truncated.trc");
    {
        TraceWriter writer(path);
        for (u64 i = 0; i < 8; ++i)
            writer.append(TraceOp::Load, 1, vm::VAddr(i * 0x1000));
    }
    // Chop the last record in half.
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 8);
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, RejectsTrailingGarbage)
{
    const std::string path = test::uniqueTempPath("trailing.trc");
    {
        TraceWriter writer(path);
        writer.append(TraceOp::Load, 1, vm::VAddr(0x1000));
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        std::fputs("junk", f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, RejectsOverpromisedCount)
{
    const std::string path = test::uniqueTempPath("overcount.trc");
    {
        TraceWriter writer(path);
        writer.append(TraceOp::Load, 1, vm::VAddr(0x1000));
    }
    {
        // Patch the header to promise far more records than exist.
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        std::fseek(f, 8, SEEK_SET);
        const u64 bogus = 1'000'000;
        std::fwrite(&bogus, sizeof(bogus), 1, f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, RejectsBadOpcode)
{
    const std::string path = test::uniqueTempPath("badop.trc");
    {
        TraceWriter writer(path);
        writer.append(TraceOp::Load, 1, vm::VAddr(0x1000));
        writer.append(TraceOp::Load, 1, vm::VAddr(0x2000));
    }
    {
        // Corrupt the second record's op byte (header is 16 bytes,
        // each record 16).
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        std::fseek(f, 16 + 16, SEEK_SET);
        std::fputc(0x7f, f);
        std::fclose(f);
    }
    EXPECT_EXIT(
        {
            TraceReader reader(path);
            TraceRecord record;
            while (reader.next(record)) {
            }
        },
        ::testing::ExitedWithCode(1), "bad op");
    std::remove(path.c_str());
}

TEST(TraceTest, ReplayObserverSeesEveryReference)
{
    const std::string path = test::uniqueTempPath("observer.trc");
    core::System sys(core::SystemConfig::plbSystem());
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const vm::SegmentId seg = kernel.createSegment("s", 4);
    kernel.attach(a, seg, vm::Access::Read);
    const vm::VAddr base = sys.state().segments.find(seg)->base();
    {
        TraceWriter writer(path);
        writer.append(TraceOp::Switch, 1, vm::VAddr(0));
        writer.append(TraceOp::Load, 1, base);
        writer.append(TraceOp::Store, 1, base); // denied: read-only
        writer.append(TraceOp::Load, 1, base + vm::kPageBytes);
    }
    std::vector<bool> decisions;
    TraceReader reader(path);
    const ReplayResult result = replay(
        sys, reader, {{1, a}},
        [&](const TraceRecord &, bool ok) { decisions.push_back(ok); });
    EXPECT_EQ(result.references, 3u);
    // Switches are not reported; outcomes arrive in trace order.
    ASSERT_EQ(decisions.size(), 3u);
    EXPECT_TRUE(decisions[0]);
    EXPECT_FALSE(decisions[1]);
    EXPECT_TRUE(decisions[2]);
    std::remove(path.c_str());
}

TEST(TraceTest, ReplayDrivesTheSystem)
{
    const std::string path = test::uniqueTempPath("replay.trc");

    // Build a scenario on one system while recording it, then replay
    // the trace on a fresh system of a different model and check the
    // reference stream behaves identically at the OS level.
    core::SystemConfig config = core::SystemConfig::plbSystem();
    core::System sys(config);
    auto &kernel = sys.kernel();
    const os::DomainId a = kernel.createDomain("a");
    const os::DomainId b = kernel.createDomain("b");
    const vm::SegmentId seg = kernel.createSegment("s", 4);
    kernel.attach(a, seg, vm::Access::ReadWrite);
    kernel.attach(b, seg, vm::Access::Read);
    const vm::VAddr base = sys.state().segments.find(seg)->base();

    {
        TraceWriter writer(path);
        writer.append(TraceOp::Switch, 1, vm::VAddr(0));
        for (u64 p = 0; p < 4; ++p)
            writer.append(TraceOp::Store, 1, base + p * vm::kPageBytes);
        writer.append(TraceOp::Switch, 2, vm::VAddr(0));
        for (u64 p = 0; p < 4; ++p)
            writer.append(TraceOp::Load, 2, base + p * vm::kPageBytes);
        writer.append(TraceOp::Store, 2, base); // will be denied
    }

    TraceReader reader(path);
    const ReplayResult result =
        replay(sys, reader, {{1, a}, {2, b}});
    EXPECT_EQ(result.records, 11u);
    EXPECT_EQ(result.references, 9u);
    EXPECT_EQ(result.switches, 2u);
    EXPECT_EQ(result.failedReferences, 1u); // b's store
    std::remove(path.c_str());
}

TEST(TraceTest, ReplayIsModelIndependentAtTheOsLevel)
{
    const std::string path = test::uniqueTempPath("replay2.trc");
    {
        TraceWriter writer(path);
        Rng rng(77);
        for (int i = 0; i < 400; ++i) {
            const u16 domain = 1 + static_cast<u16>(rng.nextBelow(2));
            const u64 page = rng.nextBelow(8);
            const TraceOp op =
                rng.bernoulli(0.3) ? TraceOp::Store : TraceOp::Load;
            writer.append(op, domain,
                          vm::VAddr(0x100000 + page * vm::kPageBytes));
        }
    }

    u64 failed[2] = {0, 0};
    int index = 0;
    for (core::ModelKind kind :
         {core::ModelKind::Plb, core::ModelKind::PageGroup}) {
        core::System sys(core::SystemConfig::forModel(kind));
        auto &kernel = sys.kernel();
        const os::DomainId a = kernel.createDomain("a");
        const os::DomainId b = kernel.createDomain("b");
        // Segment covering 0x100000..: created first so the addresses
        // in the trace land inside it (the allocator starts at page
        // 0x100).
        const vm::SegmentId seg = kernel.createSegment("s", 8);
        ASSERT_EQ(sys.state().segments.find(seg)->base().raw(),
                  0x100000u);
        kernel.attach(a, seg, vm::Access::ReadWrite);
        kernel.attach(b, seg, vm::Access::Read);
        TraceReader reader(path);
        const ReplayResult result = replay(sys, reader, {{1, a}, {2, b}});
        failed[index++] = result.failedReferences;
    }
    // The set of canonically denied references is model-independent.
    EXPECT_EQ(failed[0], failed[1]);
    std::remove(path.c_str());
}
