/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, tables, types.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace ultra
{
namespace
{

TEST(TypesTest, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(4095));
}

TEST(TypesTest, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(4096), 12u);
}

TEST(TypesTest, LogBase)
{
    EXPECT_EQ(logBase(4096, 2), 12u);
    EXPECT_EQ(logBase(4096, 4), 6u);
    EXPECT_EQ(logBase(4096, 8), 4u);
    EXPECT_EQ(logBase(8, 2), 3u);
    EXPECT_EQ(logBase(2, 2), 1u);
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(RngTest, UniformIntCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniformDouble();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliEdgeCases)
{
    Rng rng(1);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(RngTest, GeometricMean)
{
    Rng rng(5);
    const double p = 0.2;
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of the number of failures before success: (1-p)/p = 4.
    EXPECT_NEAR(sum / trials, (1.0 - p) / p, 0.15);
}

TEST(RngTest, SplitIndependence)
{
    Rng a(9);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(AccumulatorTest, Empty)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(AccumulatorTest, MeanVarianceMinMax)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(HistogramTest, BinningAndMean)
{
    Histogram h(10, 8);
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(25);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 11.0);
}

TEST(HistogramTest, OverflowBin)
{
    Histogram h(1, 4);
    h.add(1000);
    EXPECT_EQ(h.binCount(h.numBins() - 1), 1u);
    EXPECT_EQ(h.percentile(1.0), 1000u);
}

TEST(HistogramTest, Percentile)
{
    Histogram h(1, 100);
    for (std::uint64_t i = 0; i < 100; ++i)
        h.add(i);
    EXPECT_LE(h.percentile(0.5), 51u);
    EXPECT_GE(h.percentile(0.5), 49u);
    EXPECT_GE(h.percentile(0.99), 97u);
}

TEST(HistogramTest, PercentileOfEmpty)
{
    Histogram h(1, 8);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, PercentileExtremeQuantiles)
{
    Histogram h(1, 100);
    for (std::uint64_t x : {5, 6, 7})
        h.add(x);
    // q=0 lands in the first nonempty bin, q=1 in the last.
    EXPECT_EQ(h.percentile(0.0), 5u);
    EXPECT_EQ(h.percentile(1.0), 7u);
    // Out-of-range quantiles clamp rather than misbehave.
    EXPECT_EQ(h.percentile(-0.5), 5u);
    EXPECT_EQ(h.percentile(2.0), 7u);
}

TEST(HistogramTest, AllSamplesInOverflowBin)
{
    Histogram h(1, 4);
    h.add(100);
    h.add(200);
    EXPECT_EQ(h.binCount(h.numBins() - 1), 2u);
    // Every percentile of an overflow-only distribution reports the
    // largest sample -- the only value the bin still knows.
    EXPECT_EQ(h.percentile(0.5), 200u);
    EXPECT_EQ(h.percentile(1.0), 200u);
}

/** Captures log output through the pluggable sink, restoring the
 *  default sink on destruction. */
class LogCapture
{
  public:
    LogCapture()
    {
        setLogSink([this](LogLevel level, const std::string &msg) {
            messages_.emplace_back(level, msg);
        });
    }

    ~LogCapture()
    {
        setLogSink(nullptr);
    }

    const std::vector<std::pair<LogLevel, std::string>> &
    messages() const
    {
        return messages_;
    }

  private:
    std::vector<std::pair<LogLevel, std::string>> messages_;
};

TEST(LogTest, SinkCapturesFormattedMessages)
{
    LogCapture capture;
    warn("trouble at cycle ", 7);
    ASSERT_EQ(capture.messages().size(), 1u);
    EXPECT_EQ(capture.messages()[0].first, LogLevel::Warn);
    EXPECT_EQ(capture.messages()[0].second, "trouble at cycle 7");
}

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| alpha |"), std::string::npos);
    EXPECT_NE(out.find("value"), std::string::npos);
    // All lines the same width.
    std::size_t width = out.find('\n');
    for (std::size_t pos = 0; pos < out.size();) {
        const std::size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, width);
        pos = next + 1;
    }
}

TEST(TextTableTest, Formatters)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.62), "62%");
    EXPECT_EQ(TextTable::pct(0.005, 1), "0.5%");
}

} // namespace
} // namespace ultra
