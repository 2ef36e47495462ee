/**
 * @file
 * Tests for the analytic models: the Kruskal-Snir transit-time formula
 * (section 4.1), configuration cost, and the section-3.6 packaging
 * arithmetic (the 65,000-chip estimate).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analytic/config.h"
#include "analytic/packaging.h"
#include "analytic/queueing.h"

namespace ultra::analytic
{
namespace
{

NetworkConfig
makeConfig(std::uint64_t n, unsigned k, unsigned m, unsigned d)
{
    NetworkConfig cfg;
    cfg.n = n;
    cfg.k = k;
    cfg.m = m;
    cfg.d = d;
    return cfg;
}

TEST(ConfigTest, StagesAndSwitchCounts)
{
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 1);
    EXPECT_EQ(cfg.stages(), 6u);
    EXPECT_EQ(cfg.switchesPerCopy(), 6144u);
    EXPECT_EQ(cfg.totalSwitches(), 6144u);
}

TEST(ConfigTest, CostFactor)
{
    // C = d / (k lg k): 2x2 single copy -> 1/2; 4x4 duplexed -> 1/4.
    EXPECT_DOUBLE_EQ(makeConfig(4096, 2, 2, 1).costFactor(), 0.5);
    EXPECT_DOUBLE_EQ(makeConfig(4096, 4, 4, 2).costFactor(), 0.25);
    // The paper's comparison: 4x4 d=2 and 8x8 d=6 cost about the same.
    const double c44 = makeConfig(4096, 4, 4, 2).costFactor();
    const double c88 = makeConfig(4096, 8, 8, 6).costFactor();
    EXPECT_NEAR(c44, c88, 0.01);
}

TEST(ConfigTest, Capacity)
{
    // Per-PE capacity d/m: the bandwidths 0.5 and 0.75 from the paper.
    EXPECT_DOUBLE_EQ(makeConfig(4096, 4, 4, 2).capacity(), 0.5);
    EXPECT_DOUBLE_EQ(makeConfig(4096, 8, 8, 6).capacity(), 0.75);
}

TEST(ConfigTest, Validity)
{
    EXPECT_TRUE(makeConfig(4096, 4, 4, 1).valid());
    EXPECT_TRUE(makeConfig(64, 2, 2, 3).valid());
    // 8 is not a power of 4.
    EXPECT_FALSE(makeConfig(8, 4, 4, 1).valid());
    EXPECT_FALSE(makeConfig(64, 3, 3, 1).valid());
    EXPECT_FALSE(makeConfig(64, 2, 0, 1).valid());
    EXPECT_FALSE(makeConfig(64, 2, 2, 0).valid());
}

TEST(QueueingTest, ZeroLoadDelayIsZero)
{
    EXPECT_DOUBLE_EQ(switchQueueingDelay(2, 2, 0.0), 0.0);
}

TEST(QueueingTest, MatchesClosedForm)
{
    // 1 + queueing where queueing = m^2 p (1 - 1/k) / (2 (1 - m p)).
    const double q = switchQueueingDelay(4, 4, 0.05);
    EXPECT_NEAR(q, 16.0 * 0.05 * 0.75 / (2.0 * (1.0 - 0.2)), 1e-12);
}

TEST(QueueingTest, SaturationIsInfinite)
{
    EXPECT_TRUE(std::isinf(switchQueueingDelay(2, 2, 0.5)));
    EXPECT_TRUE(std::isinf(switchQueueingDelay(2, 2, 0.7)));
}

TEST(QueueingDeathTest, BadInputNamesTheValue)
{
    EXPECT_DEATH(switchQueueingDelay(2, 2, -0.5), "load p = -0.5");
}

TEST(QueueingTest, MonotoneInLoad)
{
    double prev = -1.0;
    for (double p = 0.0; p < 0.24; p += 0.01) {
        const double q = switchQueueingDelay(4, 4, p);
        EXPECT_GT(q, prev);
        prev = q;
    }
}

TEST(TransitTest, UnloadedTransitIsStagesPlusPipeFill)
{
    // T(0) = lg n / lg k + m - 1.
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 1);
    EXPECT_DOUBLE_EQ(transitTime(cfg, 0.0), 6.0 + 3.0);
}

TEST(TransitTest, PaperFormulaWithCopies)
{
    // T = (1 + k (k-1) p / (2 (d - k p))) lg n / lg k + k - 1.
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 2);
    const double p = 0.2;
    const double expected =
        (1.0 + 4.0 * 3.0 * p / (2.0 * (2.0 - 4.0 * p))) * 6.0 + 3.0;
    EXPECT_NEAR(transitTime(cfg, p), expected, 1e-12);
}

TEST(TransitTest, InfiniteAtCapacity)
{
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 2);
    EXPECT_TRUE(std::isinf(transitTime(cfg, cfg.capacity())));
    EXPECT_FALSE(std::isinf(transitTime(cfg, cfg.capacity() - 0.01)));
}

TEST(TransitTest, DuplexBeatsSimplex)
{
    const NetworkConfig one = makeConfig(4096, 4, 4, 1);
    const NetworkConfig two = makeConfig(4096, 4, 4, 2);
    for (double p = 0.05; p < 0.24; p += 0.05)
        EXPECT_LT(transitTime(two, p), transitTime(one, p));
}

TEST(TransitTest, Figure7Ranking)
{
    // "For reasonable traffic intensities a duplexed network composed of
    // 4x4 switches yields the best performance."  At p = 0.2 the 4x4
    // d=2 configuration beats 2x2 d=1, 2x2 d=2, and 8x8 d=6 is close.
    const double p = 0.20;
    const double t44d2 = transitTime(makeConfig(4096, 4, 4, 2), p);
    // ... beating the 2x2 simplex (which even costs twice as much,
    // C = 0.5 vs 0.25) and the un-duplexed 4x4.
    EXPECT_LT(t44d2, transitTime(makeConfig(4096, 2, 2, 1), p));
    EXPECT_LT(t44d2, transitTime(makeConfig(4096, 4, 4, 1), p));
    // The 8x8 d=6 network (same cost) has more headroom at high loads:
    // bandwidth 0.75 vs 0.5, so "for a given traffic level the second
    // network is less heavily loaded".
    const double high = 0.6;
    EXPECT_TRUE(std::isinf(transitTime(makeConfig(4096, 4, 4, 2), high)));
    EXPECT_FALSE(std::isinf(transitTime(makeConfig(4096, 8, 8, 6), high)));
}

TEST(TransitTest, LoadAtTransitTimeInverts)
{
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 2);
    const double target = 15.0;
    const double p = loadAtTransitTime(cfg, target);
    EXPECT_NEAR(transitTime(cfg, p), target, 1e-6);
}

TEST(TransitTest, LoadAtUnreachableTargetIsZero)
{
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 1);
    EXPECT_DOUBLE_EQ(loadAtTransitTime(cfg, 1.0), 0.0);
}

TEST(SweepTest, CurveShape)
{
    const NetworkConfig cfg = makeConfig(4096, 4, 4, 2);
    const TransitCurve curve = sweepTransitTime(cfg, 0.35, 35);
    ASSERT_EQ(curve.load.size(), 36u);
    EXPECT_DOUBLE_EQ(curve.load.front(), 0.0);
    EXPECT_NEAR(curve.load.back(), 0.35, 1e-12);
    // Monotone nondecreasing, finite below capacity.
    for (std::size_t i = 1; i < curve.transit.size(); ++i)
        EXPECT_GE(curve.transit[i], curve.transit[i - 1]);
}

TEST(ConfigSearchTest, FindsCheapestFeasible)
{
    // At p = 0.2 with a 20-cycle budget on 4096 ports, the duplexed
    // 4x4 network (C = 0.25) is feasible and cheaper than any feasible
    // 2x2 variant (C >= 0.5).
    const NetworkConfig best = cheapestConfiguration(4096, 0.2, 20.0);
    ASSERT_GT(best.d, 0u) << "a feasible configuration exists";
    EXPECT_LE(transitTime(best, 0.2), 20.0);
    EXPECT_LE(best.costFactor(), 0.251);
}

TEST(ConfigSearchTest, InfeasibleBudgetReturnsSentinel)
{
    // Nothing can beat the unloaded minimum of lg n / lg k + k - 1.
    const NetworkConfig best = cheapestConfiguration(4096, 0.1, 3.0);
    EXPECT_EQ(best.d, 0u);
}

TEST(ConfigSearchTest, GenerousBudgetPicksCheapestOverall)
{
    // With latency no object, cost alone decides: larger k wins
    // (C = d/(k lg k) falls as k grows).
    const NetworkConfig best = cheapestConfiguration(4096, 0.05, 1000.0);
    ASSERT_GT(best.d, 0u);
    EXPECT_GE(best.k, 8u);
    EXPECT_EQ(best.d, 1u);
}

TEST(ConfigSearchTest, HighLoadNeedsMoreCopies)
{
    // Past a single network's capacity the search must add copies.
    const NetworkConfig best = cheapestConfiguration(4096, 0.6, 60.0);
    ASSERT_GT(best.d, 0u);
    EXPECT_GT(best.capacity(), 0.6);
}

TEST(PackagingTest, PaperChipCounts)
{
    // Section 3.6: a 4096-PE machine needs roughly 65,000 chips, 19%
    // of them network chips; 64 PE boards of 352 chips and 64 MM
    // boards of 672 chips.
    const MachinePackage pkg = packageMachine(4096);
    EXPECT_EQ(pkg.peChips, 4096u * 4u);
    EXPECT_EQ(pkg.mmChips, 4096u * 9u);
    EXPECT_EQ(pkg.numSwitches, 6144u);
    EXPECT_EQ(pkg.networkChips, 12288u);
    EXPECT_EQ(pkg.totalChips(), 65536u);
    EXPECT_NEAR(pkg.networkFraction(), 0.19, 0.01);
    EXPECT_EQ(pkg.peBoards, 64u);
    EXPECT_EQ(pkg.mmBoards, 64u);
    EXPECT_EQ(pkg.chipsPerPeBoard, 352u);
    EXPECT_EQ(pkg.chipsPerMmBoard, 672u);
}

TEST(PackagingTest, MemoryDominatesChipCount)
{
    // "The chip count is still dominated ... by the memory chips."
    const MachinePackage pkg = packageMachine(4096);
    EXPECT_GT(pkg.mmChips, pkg.peChips + pkg.networkChips);
}

TEST(PackagingTest, SmallerMachines)
{
    const MachinePackage pkg = packageMachine(64);
    EXPECT_EQ(pkg.numPe, 64u);
    EXPECT_EQ(pkg.numSwitches, (64u / 4u) * 3u);
    // 64 = 8^2 but 3 stages is odd: no even split into board halves.
    EXPECT_EQ(pkg.peBoards, 0u);

    const MachinePackage pkg256 = packageMachine(256);
    EXPECT_EQ(pkg256.peBoards, 16u);
    EXPECT_EQ(pkg256.chipsPerPeBoard,
              16u * 4u + (16u / 4u) * 2u * 2u);
}

} // namespace
} // namespace ultra::analytic
