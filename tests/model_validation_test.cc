/**
 * @file
 * Regression guard on the simulator-vs-analytic agreement that
 * bench/fig7_transit_time demonstrates at scale: under the model's
 * assumptions (uniform i.i.d. traffic, uniform message length, no
 * combining, infinite queues) the measured one-way transit must track
 * the Kruskal-Snir formula.  A drift here means the network timing
 * model changed semantics.
 */

#include <gtest/gtest.h>

#include "analytic/queueing.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/pni.h"
#include "net/traffic.h"

namespace ultra
{
namespace
{

double
simulateOneWay(std::uint32_t ports, unsigned k, unsigned d, double p)
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = ports;
    ncfg.k = k;
    ncfg.m = k;
    ncfg.d = d;
    ncfg.sizing = net::PacketSizing::Uniform;
    ncfg.queueCapacityPackets = 0;
    ncfg.mmPendingCapacityPackets = 0;
    ncfg.combinePolicy = net::CombinePolicy::None;

    mem::MemoryConfig mcfg;
    mcfg.numModules = ports;
    mcfg.wordsPerModule = 1 << 10;
    mem::MemorySystem memory(mcfg);
    net::Network network(ncfg, memory);
    mem::AddressHash hash(log2Exact(memory.totalWords()), true);
    net::PniConfig pcfg;
    pcfg.maxOutstanding = 0;
    net::PniArray pni(pcfg, network, hash);

    net::TrafficConfig tcfg;
    tcfg.activePes = ports;
    tcfg.rate = p;
    tcfg.loadFraction = 0.0;
    tcfg.storeFraction = 1.0;
    tcfg.addrSpaceWords = std::uint64_t{ports} << 8;
    tcfg.seed = 99;
    net::TrafficGenerator traffic(tcfg, pni, network);
    traffic.run(1500);
    network.resetStats();
    traffic.run(5000);
    return network.stats().oneWayTransit.mean();
}

struct ModelParam
{
    unsigned k;
    unsigned d;
    double p;
};

class ModelValidationTest : public ::testing::TestWithParam<ModelParam>
{};

TEST_P(ModelValidationTest, SimTracksKruskalSnir)
{
    const auto [k, d, p] = GetParam();
    const std::uint32_t ports = 256;
    analytic::NetworkConfig acfg;
    acfg.n = ports;
    acfg.k = k;
    acfg.m = k;
    acfg.d = d;
    // Measured head transit includes the injection hop: analytic T + 1.
    const double predicted = analytic::transitTime(acfg, p) + 1.0;
    const double measured = simulateOneWay(ports, k, d, p);
    EXPECT_NEAR(measured / predicted, 1.0, 0.12)
        << "k=" << k << " d=" << d << " p=" << p << ": predicted "
        << predicted << ", measured " << measured;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelValidationTest,
    ::testing::Values(ModelParam{2, 1, 0.05}, ModelParam{2, 1, 0.15},
                      ModelParam{4, 1, 0.08}, ModelParam{4, 2, 0.15},
                      ModelParam{2, 2, 0.20}),
    [](const auto &info) {
        return std::string("k")
            .append(std::to_string(info.param.k))
            .append("d")
            .append(std::to_string(info.param.d))
            .append("p")
            .append(std::to_string(static_cast<int>(info.param.p * 100)));
    });

} // namespace
} // namespace ultra
