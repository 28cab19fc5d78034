/**
 * @file
 * Unit tests for the sim substrate: types, stats, RNG, cost model,
 * options, tables, cycle accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "sim/cost_model.hh"
#include "sim/cycle_account.hh"
#include "sim/options.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/types.hh"

using namespace sasos;

TEST(CyclesTest, DefaultIsZero)
{
    EXPECT_EQ(Cycles().count(), 0u);
}

TEST(CyclesTest, AdditionAccumulates)
{
    Cycles c(5);
    c += Cycles(7);
    EXPECT_EQ(c.count(), 12u);
    EXPECT_EQ((c + Cycles(3)).count(), 15u);
}

TEST(CyclesTest, ScalingByCount)
{
    EXPECT_EQ((Cycles(3) * 4).count(), 12u);
    EXPECT_EQ((4 * Cycles(3)).count(), 12u);
}

TEST(CyclesTest, Comparisons)
{
    EXPECT_LT(Cycles(1), Cycles(2));
    EXPECT_EQ(Cycles(5), Cycles(5));
    EXPECT_GE(Cycles(9), Cycles(2));
}

TEST(StatsTest, ScalarCountsAndDumps)
{
    stats::Group root("root");
    stats::Scalar counter(&root, "hits", "cache hits");
    ++counter;
    counter += 4;
    EXPECT_EQ(counter.value(), 5u);

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("root.hits 5"), std::string::npos);
}

TEST(StatsTest, ScalarReset)
{
    stats::Group root("root");
    stats::Scalar counter(&root, "n", "");
    counter += 10;
    root.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(StatsTest, NestedGroupsDumpWithDottedPrefix)
{
    stats::Group root("sys");
    stats::Group child(&root, "tlb");
    stats::Scalar misses(&child, "misses", "");
    misses += 3;

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("sys.tlb.misses 3"), std::string::npos);
}

TEST(StatsTest, FindScalarByPath)
{
    stats::Group root("sys");
    stats::Group child(&root, "tlb");
    stats::Scalar misses(&child, "misses", "");
    misses += 7;

    const stats::Scalar *found = root.findScalar("tlb.misses");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->value(), 7u);
    EXPECT_EQ(root.findScalar("tlb.nonexistent"), nullptr);
    EXPECT_EQ(root.findScalar("nothere.misses"), nullptr);
}

TEST(StatsTest, HistogramBucketsAndMoments)
{
    stats::Group root("root");
    stats::Histogram hist(&root, "lat", "", 10, 4);
    hist.sample(0);
    hist.sample(9);
    hist.sample(10);
    hist.sample(35);
    hist.sample(1000); // overflow

    EXPECT_EQ(hist.samples(), 5u);
    EXPECT_EQ(hist.bucket(0), 2u);
    EXPECT_EQ(hist.bucket(1), 1u);
    EXPECT_EQ(hist.bucket(3), 1u);
    EXPECT_EQ(hist.overflow(), 1u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 1000u);
    EXPECT_DOUBLE_EQ(hist.mean(), (0 + 9 + 10 + 35 + 1000) / 5.0);
}

TEST(StatsTest, FormulaEvaluatesAtDumpTime)
{
    stats::Group root("root");
    stats::Scalar hits(&root, "hits", "");
    stats::Scalar total(&root, "total", "");
    stats::Formula ratio(&root, "ratio", "", [&] {
        return total.value()
                   ? static_cast<double>(hits.value()) / total.value()
                   : 0.0;
    });
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 0.75);
}

TEST(RandomTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(RandomTest, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(RandomTest, NextRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const u64 v = rng.nextRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double r = rng.nextReal();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(RandomTest, BernoulliMatchesProbability)
{
    Rng rng(13);
    int heads = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        heads += rng.bernoulli(0.3);
    EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.02);
}

TEST(RandomTest, ShuffleIsAPermutation)
{
    Rng rng(17);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ZipfTest, UniformWhenThetaZero)
{
    Rng rng(19);
    ZipfDistribution zipf(4, 0.0);
    std::vector<int> counts(4, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf(rng)];
    for (int c : counts)
        EXPECT_NEAR(c / static_cast<double>(n), 0.25, 0.02);
}

TEST(ZipfTest, SkewFavorsLowRanks)
{
    Rng rng(23);
    ZipfDistribution zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfTest, GuidedDrawMatchesAFullSearch)
{
    // The guide table may only narrow the search: every u must map to
    // the rank std::lower_bound finds over the whole CDF, clamped to
    // n-1 past its end. Probe the bucket edges j/K, every CDF value
    // and the doubles either side of each, 0, 1, the largest double
    // below 1, and 10^6 random draws in all.
    Rng rng(31);
    for (std::size_t n : {1, 2, 3, 4095, 4096, 4097}) {
        for (double theta : {0.0, 0.8, 1.0, 1.5}) {
            const ZipfDistribution zipf(n, theta);
            const std::vector<double> &cdf = zipf.cdf();
            ASSERT_EQ(cdf.size(), n);
            const auto reference = [&](double u) {
                const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
                return it == cdf.end()
                           ? n - 1
                           : static_cast<std::size_t>(it - cdf.begin());
            };
            std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
            const std::size_t buckets = std::bit_ceil(n);
            for (std::size_t j = 0; j <= buckets; ++j)
                probes.push_back(static_cast<double>(j) /
                                 static_cast<double>(buckets));
            probes.insert(probes.end(), cdf.begin(), cdf.end());
            for (std::size_t i = 0, edges = probes.size(); i < edges; ++i) {
                probes.push_back(std::nextafter(probes[i], 0.0));
                probes.push_back(std::nextafter(probes[i], 1.0));
            }
            for (int i = 0; i < 1000000 / 24; ++i)
                probes.push_back(rng.nextReal());
            for (double u : probes) {
                if (u < 0.0 || u > 1.0)
                    continue;
                ASSERT_EQ(zipf.draw(u), reference(u))
                    << "n " << n << " theta " << theta << " u " << u;
            }
        }
    }
}

TEST(GeometricTest, MeanMatches)
{
    Rng rng(29);
    GeometricDistribution geo(0.25);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(geo(rng));
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(CostModelTest, DefaultsAreNonTrivial)
{
    CostModel costs;
    EXPECT_GT(costs.kernelTrap.count(), 0u);
    EXPECT_GT(costs.memory.count(), costs.l1Hit.count());
    EXPECT_GT(costs.diskAccess.count(), costs.memory.count());
}

TEST(CostModelTest, SetByName)
{
    CostModel costs;
    EXPECT_TRUE(costs.set("kernelTrap", 999));
    EXPECT_EQ(costs.kernelTrap.count(), 999u);
    EXPECT_FALSE(costs.set("noSuchCost", 1));
}

TEST(CostModelTest, GetByName)
{
    CostModel costs;
    u64 value = 0;
    EXPECT_TRUE(costs.get("plbRefill", value));
    EXPECT_EQ(value, costs.plbRefill.count());
    EXPECT_FALSE(costs.get("bogus", value));
}

TEST(CostModelTest, NamesCoverEveryConstant)
{
    CostModel costs;
    const auto names = costs.names();
    EXPECT_GE(names.size(), 20u);
    for (const auto &name : names) {
        u64 value = 0;
        EXPECT_TRUE(costs.get(name, value)) << name;
    }
}

TEST(OptionsTest, ParsesKeyValueAndCompactsArgv)
{
    const char *raw[] = {"prog", "calls=10", "--benchmark_filter=x",
                         "--sasos-seed=7", "theta=0.5"};
    char *argv[5];
    for (int i = 0; i < 5; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    int argc = 5;

    Options options;
    options.parseArgs(argc, argv);
    EXPECT_EQ(argc, 2); // prog + the benchmark flag survive
    EXPECT_STREQ(argv[1], "--benchmark_filter=x");
    EXPECT_EQ(options.getU64("calls", 0), 10u);
    EXPECT_EQ(options.getU64("seed", 0), 7u);
    EXPECT_DOUBLE_EQ(options.getDouble("theta", 0), 0.5);
}

TEST(OptionsTest, TypedGettersUseDefaults)
{
    Options options;
    EXPECT_EQ(options.getU64("missing", 42), 42u);
    EXPECT_EQ(options.getString("missing", "d"), "d");
    EXPECT_TRUE(options.getBool("missing", true));
}

TEST(OptionsTest, BoolParsing)
{
    Options options;
    options.set("a", "1");
    options.set("b", "false");
    options.set("c", "yes");
    EXPECT_TRUE(options.getBool("a", false));
    EXPECT_FALSE(options.getBool("b", true));
    EXPECT_TRUE(options.getBool("c", false));
}

TEST(OptionsTest, CostOverridesApply)
{
    Options options;
    options.set("cost.kernelTrap", "555");
    CostModel costs;
    options.applyCostOverrides(costs);
    EXPECT_EQ(costs.kernelTrap.count(), 555u);
}

TEST(OptionsTest, UnusedKeysReported)
{
    Options options;
    options.set("used", "1");
    options.set("unused", "1");
    options.getU64("used", 0);
    const auto unused = options.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(TableTest, AlignsColumns)
{
    TextTable table({"a", "bbbb"});
    table.addRow({"xxxxxx", "y"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| a      | bbbb |"), std::string::npos);
    EXPECT_NE(out.find("| xxxxxx | y    |"), std::string::npos);
}

TEST(TableTest, NumberGrouping)
{
    EXPECT_EQ(TextTable::num(u64{0}), "0");
    EXPECT_EQ(TextTable::num(u64{999}), "999");
    EXPECT_EQ(TextTable::num(u64{1000}), "1,000");
    EXPECT_EQ(TextTable::num(u64{12345}), "12,345");
    EXPECT_EQ(TextTable::num(u64{1234567}), "1,234,567");
}

TEST(TableTest, RatioFormat)
{
    EXPECT_EQ(TextTable::ratio(3.14), "3.1x");
    EXPECT_EQ(TextTable::ratio(10.0, 0), "10x");
}

TEST(CycleAccountTest, ChargesByCategory)
{
    CycleAccount account;
    account.charge(CostCategory::Trap, Cycles(100));
    account.charge(CostCategory::Trap, Cycles(50));
    account.charge(CostCategory::Io, Cycles(7));
    EXPECT_EQ(account.byCategory(CostCategory::Trap).count(), 150u);
    EXPECT_EQ(account.total().count(), 157u);
    EXPECT_EQ(account.totalExcludingIo().count(), 150u);
}

TEST(CycleAccountTest, SinceComputesDeltas)
{
    CycleAccount account;
    account.charge(CostCategory::Refill, Cycles(10));
    const CycleAccount snapshot = account;
    account.charge(CostCategory::Refill, Cycles(5));
    account.charge(CostCategory::Flush, Cycles(3));
    const CycleAccount delta = account.since(snapshot);
    EXPECT_EQ(delta.byCategory(CostCategory::Refill).count(), 5u);
    EXPECT_EQ(delta.byCategory(CostCategory::Flush).count(), 3u);
    EXPECT_EQ(delta.total().count(), 8u);
}

TEST(CycleAccountTest, ResetZeroes)
{
    CycleAccount account;
    account.charge(CostCategory::Io, Cycles(9));
    account.reset();
    EXPECT_EQ(account.total().count(), 0u);
}

TEST(CycleAccountTest, EveryCategoryHasAName)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(CostCategory::NumCategories); ++i) {
        EXPECT_STRNE(toString(static_cast<CostCategory>(i)), "?");
    }
}
