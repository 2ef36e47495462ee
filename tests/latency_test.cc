/**
 * @file
 * Tests of the packet-lifecycle latency observatory (obs/latency.h),
 * the Kruskal-Snir model cross-check (obs/model_check.h), and their
 * CLI/machine integration properties:
 *
 *   - the decomposition invariant (per-stage waits + wire hops + pipe
 *     fill + memory service == observed round trip) holds for every
 *     delivered record across uniform, hot-spot/combining, Burroughs
 *     and app workloads;
 *   - registering lat.* / model.* stats is opt-in, so default stats
 *     output is byte-identical to an instrumentation-free build;
 *   - Histogram::merge, drift arithmetic, and the tolerance gate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analytic/config.h"
#include "analytic/drift.h"
#include "analytic/queueing.h"
#include "apps/tred2.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/machine.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "net/traffic.h"
#include "obs/latency.h"
#include "obs/model_check.h"
#include "obs/registry.h"

namespace
{

using namespace ultra;

/** A network + observatory rig driven by synthetic traffic. */
struct LatRig
{
    explicit LatRig(const net::NetSimConfig &ncfg,
                    net::PniConfig pcfg = {})
        : memory(memCfg(ncfg)), network(ncfg, memory),
          hash(log2Exact(memory.totalWords()), true),
          pni(pcfg, network, hash),
          latency(shapeFor(network, ncfg))
    {
        network.setLatencyObservatory(&latency);
    }

    static mem::MemoryConfig
    memCfg(const net::NetSimConfig &ncfg)
    {
        mem::MemoryConfig mc;
        mc.numModules = ncfg.numPorts;
        mc.wordsPerModule = 1 << 12;
        mc.accessTime = ncfg.mmAccessTime;
        return mc;
    }

    static obs::LatencyShape
    shapeFor(const net::Network &network, const net::NetSimConfig &ncfg)
    {
        obs::LatencyShape shape;
        shape.stages = network.topology().stages();
        shape.switchesPerStage = network.topology().switchesPerStage();
        shape.mmAccessTime = ncfg.mmAccessTime;
        return shape;
    }

    mem::MemorySystem memory;
    net::Network network;
    mem::AddressHash hash;
    net::PniArray pni;
    obs::LatencyObservatory latency;
};

net::NetSimConfig
smallNet(std::uint32_t ports = 64, unsigned k = 2)
{
    net::NetSimConfig cfg;
    cfg.numPorts = ports;
    cfg.k = k;
    cfg.m = k;
    cfg.combinePolicy = net::CombinePolicy::Full;
    return cfg;
}

void
driveTraffic(LatRig &rig, const net::TrafficConfig &tcfg, Cycle cycles)
{
    net::TrafficGenerator gen(tcfg, rig.pni, rig.network);
    gen.run(cycles);
    rig.network.drain(50'000);
}

TEST(LatencyTest, UniformTrafficSatisfiesDecomposition)
{
    LatRig rig(smallNet());
    net::TrafficConfig tcfg;
    tcfg.activePes = 64;
    tcfg.rate = 0.15;
    tcfg.addrSpaceWords = 1 << 14;
    driveTraffic(rig, tcfg, 3000);

    EXPECT_GT(rig.latency.delivered(), 1000u);
    EXPECT_EQ(rig.latency.violations(), 0u)
        << "per-stage components must sum to the observed round trip "
           "for every delivered request";
    EXPECT_EQ(rig.latency.liveRecords(), 0u) << "drained network";
    EXPECT_EQ(rig.latency.endToEnd().count(), rig.latency.delivered());
}

TEST(LatencyTest, HotSpotCombiningSatisfiesDecomposition)
{
    // The Table-1-style hot-spot workload: deep multi-level combining
    // trees, wait-buffer residence, fission chains.
    LatRig rig(smallNet());
    net::TrafficConfig tcfg;
    tcfg.activePes = 64;
    tcfg.rate = 0.2;
    tcfg.hotFraction = 0.9;
    tcfg.hotAddr = 13;
    tcfg.addrSpaceWords = 1 << 14;
    driveTraffic(rig, tcfg, 4000);

    EXPECT_GT(rig.latency.combinedDelivered(), 100u)
        << "the workload must actually exercise combining";
    EXPECT_EQ(rig.latency.violations(), 0u);
    EXPECT_GT(rig.latency.mmCyclesSaved(), 0u);
    // Every combined-away delivered record passed through a wait
    // buffer, so residence times were observed.
    EXPECT_EQ(rig.latency.wbWait().count(),
              rig.latency.combinedDelivered());
    // Fan-in histogram counts one entry per MM service.
    EXPECT_GT(rig.latency.fanInHist().percentile(0.95), 1u);
}

TEST(LatencyTest, BurroughsKillsCloseRecords)
{
    net::NetSimConfig ncfg = smallNet();
    ncfg.burroughsKill = true;
    ncfg.combinePolicy = net::CombinePolicy::None;
    LatRig rig(ncfg);
    net::TrafficConfig tcfg;
    tcfg.activePes = 64;
    tcfg.rate = 0.2;
    tcfg.addrSpaceWords = 1 << 14;
    driveTraffic(rig, tcfg, 3000);

    EXPECT_GT(rig.latency.killed(), 0u)
        << "kill-on-conflict at this load must kill something";
    EXPECT_EQ(rig.latency.violations(), 0u)
        << "delivered Burroughs requests obey the same decomposition";
    EXPECT_EQ(rig.latency.liveRecords(), 0u)
        << "kills and deliveries must recycle every record";
}

TEST(LatencyTest, HeatmapCountsStageVisits)
{
    LatRig rig(smallNet());
    net::TrafficConfig tcfg;
    tcfg.activePes = 64;
    tcfg.rate = 0.1;
    tcfg.addrSpaceWords = 1 << 14;
    driveTraffic(rig, tcfg, 2000);

    const unsigned stages = rig.network.topology().stages();
    std::uint64_t fwd_visits = 0;
    for (unsigned s = 0; s < stages; ++s) {
        for (std::uint32_t sw = 0;
             sw < rig.network.topology().switchesPerStage(); ++sw) {
            fwd_visits += rig.latency.heatCell(true, s, sw).visits;
        }
    }
    // Every non-combined delivered request crossed every stage once.
    EXPECT_GE(fwd_visits, rig.latency.delivered());
    const std::string csv = rig.latency.heatmapCsv();
    EXPECT_NE(csv.find("direction,stage,switch,visits,wait_cycles,"
                       "mean_wait,combines"),
              std::string::npos);
    EXPECT_NE(csv.find("fwd,0,0,"), std::string::npos);
    EXPECT_NE(csv.find("rev,0,0,"), std::string::npos);
}

TEST(LatencyTest, MachineAppWorkloadSatisfiesDecomposition)
{
    core::MachineConfig cfg = core::MachineConfig::small(16, 2);
    core::Machine machine(cfg);
    machine.enableLatency();
    (void)apps::tred2Parallel(machine, 8, apps::randomSymmetric(10, 1),
                              10);
    ASSERT_NE(machine.latency(), nullptr);
    EXPECT_GT(machine.latency()->delivered(), 100u);
    EXPECT_EQ(machine.latency()->violations(), 0u);
    const std::string json = machine.latencyJson();
    EXPECT_NE(json.find("\"pe_wait\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
}

TEST(LatencyTest, StatsRegistrationIsOptIn)
{
    core::MachineConfig cfg = core::MachineConfig::small(16, 2);
    // Two machines, same workload; only one enables the observatory.
    core::Machine plain(cfg);
    core::Machine instrumented(cfg);
    instrumented.enableLatency();
    (void)apps::tred2Parallel(plain, 4, apps::randomSymmetric(8, 1), 8);
    (void)apps::tred2Parallel(instrumented, 4,
                              apps::randomSymmetric(8, 1), 8);

    const std::string off = plain.statsJson();
    const std::string on = instrumented.statsJson();
    EXPECT_EQ(off.find("\"lat."), std::string::npos)
        << "no lat.* lines unless enabled";
    EXPECT_NE(on.find("\"lat.delivered\""), std::string::npos);
    EXPECT_NE(on.find("\"lat.end_to_end\""), std::string::npos);
    EXPECT_NE(on.find("\"lat.stage0.fwd_wait_hist\""),
              std::string::npos);
    // And the timing itself is identical: instrumentation must not
    // change simulated behaviour.
    EXPECT_EQ(plain.now(), instrumented.now());
}

TEST(LatencyTest, SortedDumpIsSortedAndCompactStable)
{
    core::MachineConfig cfg = core::MachineConfig::small(16, 2);
    core::Machine machine(cfg);
    (void)apps::tred2Parallel(machine, 4, apps::randomSymmetric(8, 1),
                              8);
    const obs::DumpOptions sorted{.sortKeys = true, .pretty = false};
    const std::string a = machine.statsJson(sorted);
    const std::string b = machine.statsJson(sorted);
    EXPECT_EQ(a, b);
    // Keys appear in sorted order: mem.* before net.* before pe.*.
    const std::size_t mem_pos = a.find("\"mem.executed\"");
    const std::size_t net_pos = a.find("\"net.injected\"");
    const std::size_t pe_pos = a.find("\"pe.instructions\"");
    ASSERT_NE(mem_pos, std::string::npos);
    ASSERT_NE(net_pos, std::string::npos);
    ASSERT_NE(pe_pos, std::string::npos);
    EXPECT_LT(mem_pos, net_pos);
    EXPECT_LT(net_pos, pe_pos);
    // Compact mode is single-line.
    EXPECT_EQ(a.find("\n"), a.size() - 1);
    // The default (golden-pinned) rendering is unchanged by the
    // overload's existence: pretty, insertion order.
    EXPECT_EQ(machine.statsJson(),
              machine.statsJson(obs::DumpOptions{}));
}

TEST(HistogramTest, MergeAddsSamplesAndPreservesShape)
{
    Histogram a{2, 16};
    Histogram b{2, 16};
    a.add(1);
    a.add(5);
    b.add(5);
    b.add(100); // overflow bin
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), (1 + 5 + 5 + 100) / 4.0);
    Histogram all{2, 16};
    for (std::uint64_t x : {1u, 5u, 5u, 100u})
        all.add(x);
    for (std::size_t i = 0; i < all.numBins(); ++i)
        EXPECT_EQ(a.binCount(i), all.binCount(i)) << "bin " << i;
    EXPECT_EQ(a.percentile(0.5), all.percentile(0.5));
}

TEST(ModelCheckTest, DriftArithmetic)
{
    analytic::NetworkConfig cfg;
    cfg.n = 1024;
    cfg.k = 4;
    cfg.m = 4;
    cfg.d = 1;
    const double p = 0.1;
    const double predicted = analytic::predictedSimTransit(cfg, p);
    EXPECT_DOUBLE_EQ(predicted, analytic::transitTime(cfg, p) + 1.0)
        << "the sim's one-way transit includes the injection hop";
    EXPECT_DOUBLE_EQ(analytic::transitDrift(cfg, p, predicted), 0.0);
    EXPECT_GT(analytic::transitDrift(cfg, p, predicted * 1.2), 0.19);
    EXPECT_LT(analytic::transitDrift(cfg, p, predicted * 0.8), -0.19);
    // Past saturation the prediction is infinite: drift undefined.
    EXPECT_FALSE(std::isfinite(
        analytic::transitDrift(cfg, cfg.capacity() * 2.0, 30.0)));
}

TEST(ModelCheckTest, ToleranceGateAndRegistration)
{
    analytic::NetworkConfig cfg;
    cfg.n = 1024;
    cfg.k = 4;
    cfg.m = 4;
    cfg.d = 1;
    const double p = 0.1;
    const double predicted = analytic::predictedSimTransit(cfg, p);

    const obs::ModelCrossCheck good(cfg, p, predicted * 1.05, true,
                                    0.15);
    EXPECT_TRUE(good.report().withinTolerance());
    EXPECT_TRUE(good.check());

    const obs::ModelCrossCheck bad(cfg, p, predicted * 1.5, true, 0.15);
    EXPECT_FALSE(bad.report().withinTolerance());
    EXPECT_FALSE(bad.check());

    // Non-applicable runs vacuously pass regardless of drift.
    const obs::ModelCrossCheck na(cfg, p, predicted * 9.0, false, 0.15);
    EXPECT_TRUE(na.report().withinTolerance());

    obs::Registry registry;
    bad.registerStats(registry, "model");
    const std::string dump = registry.jsonDump(0);
    EXPECT_NE(dump.find("\"model.drift\""), std::string::npos);
    EXPECT_NE(dump.find("\"model.predicted_transit\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"model.applicable\""), std::string::npos);
    const std::string json = bad.json();
    EXPECT_NE(json.find("\"within_tolerance\": false"),
              std::string::npos);
}

TEST(LatencyTest, SimTracksModelOnConformingConfig)
{
    // End-to-end drift check at library level: a model-conforming
    // config (uniform sizing, no combining, unbounded queues, open
    // loop) must track the Kruskal-Snir prediction within tolerance.
    net::NetSimConfig ncfg;
    ncfg.numPorts = 256;
    ncfg.k = 4;
    ncfg.m = 4;
    ncfg.sizing = net::PacketSizing::Uniform;
    ncfg.queueCapacityPackets = 0;
    ncfg.mmPendingCapacityPackets = 0;
    ncfg.combinePolicy = net::CombinePolicy::None;
    net::PniConfig pcfg;
    pcfg.maxOutstanding = 0; // open loop

    LatRig rig(ncfg, pcfg);
    net::TrafficConfig tcfg;
    tcfg.activePes = 256;
    tcfg.rate = 0.1;
    tcfg.loadFraction = 0.0;
    tcfg.storeFraction = 1.0;
    tcfg.addrSpaceWords = 1 << 16;
    net::TrafficGenerator gen(tcfg, rig.pni, rig.network);
    gen.run(1000); // warm up
    rig.network.resetStats();
    gen.run(4000);

    analytic::NetworkConfig acfg;
    acfg.n = ncfg.numPorts;
    acfg.k = ncfg.k;
    acfg.m = ncfg.m;
    acfg.d = ncfg.d;
    const auto &stats = rig.network.stats();
    const double offered = static_cast<double>(stats.injected) /
                           4000.0 / ncfg.numPorts;
    const obs::ModelCrossCheck check(acfg, offered,
                                     stats.oneWayTransit.mean(), true);
    EXPECT_TRUE(check.check())
        << "drift " << check.report().drift << " vs predicted "
        << check.report().predictedTransit;
    rig.network.drain(50'000);
    EXPECT_EQ(rig.latency.violations(), 0u);
}

TEST(LatencyTest, HotCellsTieBreakOnCoordinates)
{
    // Regression for the hot_cells ranking: cells with *equal*
    // accumulated wait must order by (direction, stage, switch), not by
    // whatever the library sort leaves behind.  Seed four equal-wait
    // cells in scrambled fold order and one strictly hotter cell.
    obs::LatencyShape shape;
    shape.stages = 2;
    shape.switchesPerStage = 3;
    obs::LatencyObservatory lat(shape);
    lat.foldDepartWait(false, 1, 2, 7); // rev, equal block, folded first
    lat.foldDepartWait(true, 1, 0, 7);
    lat.foldDepartWait(true, 0, 2, 7);
    lat.foldDepartWait(true, 0, 1, 9); // strictly hottest
    lat.foldDepartWait(false, 0, 0, 7);
    const std::string json = lat.summaryJson();
    const std::size_t at = json.find("\"hot_cells\"");
    ASSERT_NE(at, std::string::npos);
    const std::vector<std::string> expect = {
        "{\"direction\": \"fwd\", \"stage\": 0, \"switch\": 1",
        "{\"direction\": \"fwd\", \"stage\": 0, \"switch\": 2",
        "{\"direction\": \"fwd\", \"stage\": 1, \"switch\": 0",
        "{\"direction\": \"rev\", \"stage\": 0, \"switch\": 0",
        "{\"direction\": \"rev\", \"stage\": 1, \"switch\": 2",
    };
    std::size_t pos = at;
    for (const std::string &cell : expect) {
        const std::size_t next = json.find(cell, pos);
        ASSERT_NE(next, std::string::npos) << cell << "\n" << json;
        pos = next + cell.size();
    }
}

} // namespace
