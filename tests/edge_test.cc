/**
 * @file
 * Edge-case and failure-injection tests: fatal user-error paths,
 * formatter corners, kernel misuse guards -- the checks that keep bad
 * configurations from producing silently wrong numbers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/smp.hh"
#include "core/system.hh"
#include "sim/options.hh"
#include "sim/table.hh"
#include "trace/trace.hh"

using namespace sasos;

TEST(OptionsEdgeTest, BadIntegerIsFatal)
{
    Options options;
    options.set("calls", "not-a-number");
    EXPECT_EXIT(options.getU64("calls", 1),
                ::testing::ExitedWithCode(1), "not an int");
}

TEST(OptionsEdgeTest, BadDoubleIsFatal)
{
    Options options;
    options.set("theta", "0.5x");
    EXPECT_EXIT(options.getDouble("theta", 1.0),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(OptionsEdgeTest, BadBoolIsFatal)
{
    Options options;
    options.set("eager", "maybe");
    EXPECT_EXIT(options.getBool("eager", false),
                ::testing::ExitedWithCode(1), "not a bool");
}

TEST(OptionsEdgeTest, UnknownCostConstantIsFatal)
{
    Options options;
    options.set("cost.noSuchThing", "5");
    CostModel costs;
    EXPECT_EXIT(options.applyCostOverrides(costs),
                ::testing::ExitedWithCode(1), "unknown cost constant");
}

TEST(OptionsEdgeTest, ThreadsAboveTheBoundIsFatal)
{
    // Only parses the key: a rejected count must never reach a
    // thread launch, and 2^32 must not wrap to the default.
    Options options;
    for (const char *value : {"1025", "100000", "4294967296"}) {
        options.set("threads", value);
        EXPECT_EXIT(options.threads(), ::testing::ExitedWithCode(1),
                    "at most 1024")
            << value;
    }
    options.set("threads", "1024");
    EXPECT_EQ(options.threads(), 1024u);
}

TEST(OptionsEdgeTest, HexValuesAreFatal)
{
    // Integers are decimal only; no caller passes hex.
    Options options;
    options.set("addr", "0x1000");
    EXPECT_EXIT(options.getU64("addr", 0), ::testing::ExitedWithCode(1),
                "option 'addr': '0x1000' is not an int");
}

TEST(ConfigEdgeTest, UnknownModelIsFatal)
{
    EXPECT_EXIT(core::parseModelKind("vax"),
                ::testing::ExitedWithCode(1), "unknown protection model");
}

TEST(ConfigEdgeTest, UnknownCacheOrgIsFatal)
{
    Options options;
    options.set("cacheOrg", "sideways");
    EXPECT_EXIT(core::SystemConfig::fromOptions(
                    options, core::SystemConfig::plbSystem()),
                ::testing::ExitedWithCode(1),
                "unknown cache organization");
}

TEST(TableEdgeTest, SeparatorRendersRule)
{
    TextTable table({"a"});
    table.addRow({"x"});
    table.addSeparator();
    table.addRow({"y"});
    std::ostringstream os;
    table.print(os);
    // header rule + separator + top/bottom = at least 4 rules.
    const std::string out = os.str();
    std::size_t rules = 0, pos = 0;
    while ((pos = out.find("+---", pos)) != std::string::npos) {
        ++rules;
        pos += 4;
    }
    EXPECT_GE(rules, 4u);
}

TEST(TableEdgeTest, WrongCellCountPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "cells");
}

TEST(StatsEdgeTest, ResetIsRecursive)
{
    stats::Group root("r");
    stats::Group child(&root, "c");
    stats::Scalar a(&root, "a", "");
    stats::Scalar b(&child, "b", "");
    a += 1;
    b += 2;
    root.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(KernelEdgeTest, DestroyingRunningDomainPanics)
{
    core::System sys(core::SystemConfig::plbSystem());
    const os::DomainId d = sys.kernel().createDomain("only");
    EXPECT_DEATH(sys.kernel().destroyDomain(d), "running domain");
}

TEST(KernelEdgeTest, AttachingUnknownSegmentIsFatal)
{
    core::System sys(core::SystemConfig::plbSystem());
    const os::DomainId d = sys.kernel().createDomain("d");
    EXPECT_EXIT(sys.kernel().attach(d, 999, vm::Access::Read),
                ::testing::ExitedWithCode(1), "unknown segment");
}

TEST(KernelEdgeTest, UnmappingUnmappedPagePanics)
{
    core::System sys(core::SystemConfig::plbSystem());
    sys.kernel().createDomain("d");
    EXPECT_DEATH(sys.kernel().unmapPage(vm::Vpn(0x100)), "unmap");
}

TEST(KernelEdgeTest, AccessWithNoDomainPanics)
{
    core::System sys(core::SystemConfig::plbSystem());
    EXPECT_DEATH(sys.load(vm::VAddr(0x100000)), "no current domain");
}

TEST(KernelEdgeTest, ZeroPageSegmentIsFatal)
{
    core::System sys(core::SystemConfig::plbSystem());
    sys.kernel().createDomain("d");
    EXPECT_EXIT(sys.kernel().createSegment("empty", 0),
                ::testing::ExitedWithCode(1), "at least one page");
}

TEST(TraceEdgeTest, MalformedTextLineIsFatal)
{
    EXPECT_EXIT(trace::fromText("gibberish"),
                ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(trace::fromText("poke d=1 0x10"),
                ::testing::ExitedWithCode(1), "malformed");
}

TEST(TraceEdgeTest, MissingFileIsFatal)
{
    EXPECT_EXIT(trace::TraceReader reader("/nonexistent/path.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(SmpEdgeTest, ZeroCpusPanics)
{
    EXPECT_DEATH(
        core::SmpSystem(core::SystemConfig::plbSystem(), 0),
        "at least one CPU");
}

TEST(SmpEdgeTest, BadCpuIndexPanics)
{
    core::SmpSystem sys(core::SystemConfig::plbSystem(), 2);
    const os::DomainId d = sys.kernel().createDomain("d");
    EXPECT_DEATH(sys.runOn(7, d), "no CPU");
}
