/**
 * @file
 * Property tests for Omega-network routing (section 3.1.1, Figure 2):
 * the digit-routing algorithm connects every PE-MM pair, the shuffle
 * is a bijection, and the forward/reverse hops are mutual inverses
 * (the amalgam-address property of section 3.1.2).
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/routing.h"

namespace ultra::net
{
namespace
{

struct TopoParam
{
    std::uint32_t n;
    unsigned k;
};

class OmegaTopologyTest : public ::testing::TestWithParam<TopoParam>
{};

TEST_P(OmegaTopologyTest, ShuffleIsBijectionAndInverse)
{
    const OmegaTopology topo(GetParam().n, GetParam().k);
    std::vector<bool> seen(topo.numPorts(), false);
    for (std::uint32_t line = 0; line < topo.numPorts(); ++line) {
        const std::uint32_t s = topo.shuffle(line);
        ASSERT_LT(s, topo.numPorts());
        ASSERT_FALSE(seen[s]);
        seen[s] = true;
        ASSERT_EQ(topo.unshuffle(s), line);
    }
}

TEST_P(OmegaTopologyTest, EveryPairRoutesToItsMM)
{
    const OmegaTopology topo(GetParam().n, GetParam().k);
    std::vector<std::uint32_t> lines(topo.stages() + 1);
    for (std::uint32_t pe = 0; pe < topo.numPorts(); ++pe) {
        for (std::uint32_t mm = 0; mm < topo.numPorts(); ++mm) {
            topo.tracePath(pe, mm, lines.data());
            ASSERT_EQ(lines[topo.stages()], mm)
                << "PE " << pe << " -> MM " << mm;
        }
    }
}

TEST_P(OmegaTopologyTest, ReverseHopInvertsForwardHop)
{
    const OmegaTopology topo(GetParam().n, GetParam().k);
    std::vector<std::uint32_t> lines(topo.stages() + 1);
    for (std::uint32_t pe = 0; pe < topo.numPorts(); ++pe) {
        for (std::uint32_t mm = 0; mm < topo.numPorts();
             mm += 1 + topo.numPorts() / 16) {
            topo.tracePath(pe, mm, lines.data());
            // Walk the reply backwards: it must retrace the path.
            for (unsigned s = topo.stages(); s-- > 0;) {
                ASSERT_EQ(topo.reverseHop(lines[s + 1], s, pe),
                          lines[s]);
            }
        }
    }
}

TEST_P(OmegaTopologyTest, PathsSharePrefixOnlyThroughSameSwitches)
{
    // Sanity: a message's switch at stage s is determined by its
    // current line, and output lines always lie in [0, n).
    const OmegaTopology topo(GetParam().n, GetParam().k);
    std::vector<std::uint32_t> lines(topo.stages() + 1);
    for (std::uint32_t pe = 0; pe < topo.numPorts();
         pe += 1 + topo.numPorts() / 32) {
        for (std::uint32_t mm = 0; mm < topo.numPorts();
             mm += 1 + topo.numPorts() / 32) {
            topo.tracePath(pe, mm, lines.data());
            for (unsigned s = 0; s <= topo.stages(); ++s)
                ASSERT_LT(lines[s], topo.numPorts());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, OmegaTopologyTest,
    ::testing::Values(TopoParam{8, 2}, TopoParam{16, 2}, TopoParam{64, 2},
                      TopoParam{16, 4}, TopoParam{64, 4},
                      TopoParam{256, 4}, TopoParam{64, 8},
                      TopoParam{2, 2}, TopoParam{4, 4}),
    [](const auto &info) {
        return std::string("n")
            .append(std::to_string(info.param.n))
            .append("k")
            .append(std::to_string(info.param.k));
    });

TEST(OmegaTopologyTest, PaperFigure2Geometry)
{
    // Figure 2 is the N=8 network of 2x2 switches: 3 stages of 4.
    const OmegaTopology topo(8, 2);
    EXPECT_EQ(topo.stages(), 3u);
    EXPECT_EQ(topo.switchesPerStage(), 4u);
    // Routing digit at stage j is bit m_{D-1-j} of the destination.
    EXPECT_EQ(topo.routeDigit(0b110, 0), 1u);
    EXPECT_EQ(topo.routeDigit(0b110, 1), 1u);
    EXPECT_EQ(topo.routeDigit(0b110, 2), 0u);
}

TEST(OmegaTopologyTest, Table1Geometry)
{
    // The Table-1 simulation: six stages of 4x4 switches, 4096 ports.
    const OmegaTopology topo(4096, 4);
    EXPECT_EQ(topo.stages(), 6u);
    EXPECT_EQ(topo.switchesPerStage(), 1024u);
}

} // namespace
} // namespace ultra::net
