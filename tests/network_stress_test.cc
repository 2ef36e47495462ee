/**
 * @file
 * Property and stress tests of the network across the configuration
 * space: conservation (every request answered exactly once, the
 * message pool drains), the serialization principle for swap chains
 * and fetch-and-add storms under every switch geometry, stability
 * across repeated bursts, message-pool conservation under combining
 * storms and Burroughs kills, and run-to-run identity of the observed
 * hot-spot and kill storms and of TRED2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/tred2.h"
#include "common/rng.h"
#include "core/coord.h"
#include "core/machine.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "net/traffic.h"
#include "obs/latency.h"
#include "obs/registry.h"

namespace ultra::net
{
namespace
{

struct StressParam
{
    std::uint32_t ports;
    unsigned k;
    unsigned m;
    unsigned d;
    PacketSizing sizing;
    CombinePolicy policy;
    std::uint32_t queueCap;

    std::string
    name() const
    {
        std::string s = "n" + std::to_string(ports) + "k" +
                        std::to_string(k) + "m" + std::to_string(m) +
                        "d" + std::to_string(d);
        s += sizing == PacketSizing::Uniform ? "U" : "C";
        s += policy == CombinePolicy::None         ? "none"
             : policy == CombinePolicy::Homogeneous ? "homo"
                                                     : "full";
        s += "q" + std::to_string(queueCap);
        return s;
    }
};

class NetworkSweepTest : public ::testing::TestWithParam<StressParam>
{
  protected:
    NetSimConfig
    makeConfig() const
    {
        const StressParam &p = GetParam();
        NetSimConfig cfg;
        cfg.numPorts = p.ports;
        cfg.k = p.k;
        cfg.m = p.m;
        cfg.d = p.d;
        cfg.sizing = p.sizing;
        cfg.combinePolicy = p.policy;
        cfg.queueCapacityPackets = p.queueCap;
        cfg.mmPendingCapacityPackets = p.queueCap;
        return cfg;
    }

    mem::MemoryConfig
    makeMemConfig() const
    {
        mem::MemoryConfig mc;
        mc.numModules = GetParam().ports;
        mc.wordsPerModule = 256;
        return mc;
    }
};

TEST_P(NetworkSweepTest, FetchAddStormSerializes)
{
    mem::MemorySystem memory(makeMemConfig());
    Network network(makeConfig(), memory);
    std::vector<std::pair<PEId, Word>> deliveries;
    network.setDeliverCallback(
        [&](PEId pe, std::uint64_t, Word value) {
            deliveries.emplace_back(pe, value);
        });

    const std::uint32_t ports = GetParam().ports;
    const Addr target = 7;
    std::vector<Word> increments(ports);
    for (PEId pe = 0; pe < ports; ++pe) {
        increments[pe] = 1 + static_cast<Word>((pe * 13) % 11);
        while (!network.tryInject(pe, Op::FetchAdd, target,
                                  increments[pe], pe)) {
            network.tick();
        }
    }
    ASSERT_TRUE(network.drain(500000));
    ASSERT_EQ(deliveries.size(), ports);

    Word total = 0;
    for (Word inc : increments)
        total += inc;
    EXPECT_EQ(memory.peek(target), total);

    // Returned values must be the partial sums of some permutation.
    std::vector<std::pair<Word, Word>> seen;
    for (const auto &[pe, value] : deliveries)
        seen.emplace_back(value, increments[pe]);
    std::sort(seen.begin(), seen.end());
    Word running = 0;
    for (const auto &[old_value, inc] : seen) {
        ASSERT_EQ(old_value, running) << GetParam().name();
        running += inc;
    }
}

TEST_P(NetworkSweepTest, SwapChainConserves)
{
    // N swaps of distinct values into one cell: every swap returns the
    // previous occupant, so {returned values} + {final value} must be
    // exactly {initial value} + {swapped-in values} as multisets.
    mem::MemorySystem memory(makeMemConfig());
    Network network(makeConfig(), memory);
    std::vector<Word> returned;
    network.setDeliverCallback(
        [&](PEId, std::uint64_t, Word value) {
            returned.push_back(value);
        });

    const std::uint32_t ports = GetParam().ports;
    const Addr target = 3;
    memory.poke(target, 1'000'000);
    std::multiset<Word> put = {1'000'000};
    for (PEId pe = 0; pe < ports; ++pe) {
        const Word value = 500 + pe;
        put.insert(value);
        while (!network.tryInject(pe, Op::Swap, target, value, pe))
            network.tick();
    }
    ASSERT_TRUE(network.drain(500000));
    ASSERT_EQ(returned.size(), ports);

    std::multiset<Word> got(returned.begin(), returned.end());
    got.insert(memory.peek(target));
    EXPECT_EQ(got, put) << GetParam().name();
}

TEST_P(NetworkSweepTest, RandomMixDrainsAndConserves)
{
    mem::MemorySystem memory(makeMemConfig());
    Network network(makeConfig(), memory);
    std::uint64_t delivered = 0;
    network.setDeliverCallback(
        [&](PEId, std::uint64_t, Word) { ++delivered; });

    Rng rng(GetParam().ports * 31 + GetParam().k);
    const std::uint32_t ports = GetParam().ports;
    std::uint64_t injected = 0;
    // Addresses confined to a small window to force combining and
    // queueing interplay; only F&A mutates, so sums stay checkable.
    std::map<Addr, Word> fa_sums;
    for (int burst = 0; burst < 3; ++burst) {
        for (int round = 0; round < 6; ++round) {
            for (PEId pe = 0; pe < ports; ++pe) {
                if (!rng.bernoulli(0.6))
                    continue;
                const Addr addr = rng.uniformInt(8);
                const double pick = rng.uniformDouble();
                Op op;
                Word data = 0;
                if (pick < 0.5) {
                    op = Op::FetchAdd;
                    data = 1 + static_cast<Word>(rng.uniformInt(5));
                    fa_sums[addr] += data;
                } else {
                    op = Op::Load;
                }
                if (network.tryInject(pe, op, addr, data, injected))
                    ++injected;
                else
                    fa_sums[addr] -= op == Op::FetchAdd ? data : 0;
            }
            network.tick();
        }
        ASSERT_TRUE(network.drain(500000)) << GetParam().name();
        EXPECT_EQ(network.inFlight(), 0u);
    }
    EXPECT_EQ(delivered, injected);
    for (const auto &[addr, sum] : fa_sums)
        EXPECT_EQ(memory.peek(addr), sum) << "addr " << addr;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, NetworkSweepTest,
    ::testing::Values(
        StressParam{16, 2, 2, 1, PacketSizing::ByContent,
                    CombinePolicy::Full, 15},
        StressParam{16, 2, 2, 1, PacketSizing::ByContent,
                    CombinePolicy::None, 15},
        StressParam{64, 4, 4, 1, PacketSizing::Uniform,
                    CombinePolicy::Full, 16},
        StressParam{64, 4, 2, 2, PacketSizing::ByContent,
                    CombinePolicy::Homogeneous, 15},
        StressParam{64, 8, 8, 3, PacketSizing::Uniform,
                    CombinePolicy::Full, 24},
        StressParam{256, 2, 2, 1, PacketSizing::ByContent,
                    CombinePolicy::Full, 6},
        StressParam{64, 2, 2, 1, PacketSizing::ByContent,
                    CombinePolicy::Full, 0},
        StressParam{32, 2, 3, 1, PacketSizing::Uniform,
                    CombinePolicy::Homogeneous, 15}),
    [](const auto &info) { return info.param.name(); });

TEST(NetworkStressTest, TestAndSetExactlyOneWinner)
{
    // The classic mutual-exclusion primitive: of N concurrent
    // test-and-sets, exactly one sees 0.
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.combinePolicy = CombinePolicy::Full;
    mem::MemoryConfig mc;
    mc.numModules = 64;
    mc.wordsPerModule = 64;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);
    int winners = 0;
    network.setDeliverCallback([&](PEId, std::uint64_t, Word value) {
        winners += value == 0 ? 1 : 0;
    });
    for (PEId pe = 0; pe < 64; ++pe) {
        while (!network.tryInject(pe, Op::TestAndSet, 9, 0, pe))
            network.tick();
    }
    ASSERT_TRUE(network.drain(100000));
    EXPECT_EQ(winners, 1);
    EXPECT_EQ(memory.peek(9), 1);
}

TEST(NetworkStressTest, FetchMaxFindsGlobalMax)
{
    // Associative fetch-and-phi beyond add: concurrent FetchMax ops
    // combine in the switches; the final value is the maximum.
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.combinePolicy = CombinePolicy::Full;
    mem::MemoryConfig mc;
    mc.numModules = 64;
    mc.wordsPerModule = 64;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);
    network.setDeliverCallback([](PEId, std::uint64_t, Word) {});
    Word expect_max = 0;
    Rng rng(4);
    for (PEId pe = 0; pe < 64; ++pe) {
        const Word v = static_cast<Word>(rng.uniformInt(100000));
        expect_max = std::max(expect_max, v);
        while (!network.tryInject(pe, Op::FetchMax, 2, v, pe))
            network.tick();
    }
    ASSERT_TRUE(network.drain(100000));
    EXPECT_EQ(memory.peek(2), expect_max);
    EXPECT_GT(network.stats().combined, 0u);
}

TEST(NetworkStressTest, LongMessagesDoNotStarveBehindShortOnes)
{
    // Regression for a real starvation found by the barrier benchmark:
    // under saturation, every packet freed at a congested merge point
    // was snatched by 1-packet loads from one input before a 3-packet
    // fetch-and-add on the other input could ever accumulate its 3
    // packets.  Age-fair claims (OutQueue) must let the F&As through.
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.k = 2;
    cfg.combinePolicy = CombinePolicy::None; // no combining relief
    cfg.queueCapacityPackets = 15;
    cfg.mmPendingCapacityPackets = 15;
    mem::MemoryConfig mc;
    mc.numModules = 64;
    mc.wordsPerModule = 1024;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);

    std::uint64_t fa_done = 0;
    network.setDeliverCallback([&](PEId pe, std::uint64_t, Word) {
        fa_done += pe >= 48 ? 1 : 0;
    });

    // PEs 0-47: an endless storm of 1-packet loads of module 0.
    // PEs 48-63: one 3-packet F&A each, to a different word of the
    // same module.
    std::vector<bool> fa_sent(64, false);
    Cycle guard = 0;
    while (fa_done < 16 && guard++ < 150000) {
        for (PEId pe = 0; pe < 48; ++pe)
            network.tryInject(pe, Op::Load, 0, 0, pe); // best effort
        for (PEId pe = 48; pe < 64; ++pe) {
            if (!fa_sent[pe]) {
                fa_sent[pe] = network.tryInject(
                    pe, Op::FetchAdd, 64 + pe, 1, pe);
            }
        }
        network.tick();
    }
    EXPECT_EQ(fa_done, 16u)
        << "3-packet F&As starved behind the 1-packet load storm";
}

TEST(NetworkStressTest, LargeBarrierWithoutCombiningCompletes)
{
    // End-to-end version of the starvation regression: a 128-PE
    // F&A barrier with combining disabled must still finish.
    core::MachineConfig cfg = core::MachineConfig::small(128, 2);
    cfg.net.combinePolicy = CombinePolicy::None;
    core::Machine machine(cfg);
    auto barrier = core::Barrier::create(machine, 128);
    for (PEId p = 0; p < 128; ++p) {
        machine.launch(p, [barrier](pe::Pe &pe) -> pe::Task {
            Word sense = 0;
            for (int e = 0; e < 3; ++e)
                co_await core::barrierWait(pe, barrier, &sense);
        });
    }
    EXPECT_TRUE(machine.run(2'000'000));
}

TEST(NetworkStressTest, IdealParacomputerSingleCycleSemantics)
{
    // Section 2.1: every PE reads or writes shared memory in one
    // cycle; simultaneous F&As to one cell still serialize correctly.
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.idealParacomputer = true;
    mem::MemoryConfig mc;
    mc.numModules = 64;
    mc.wordsPerModule = 64;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);
    std::vector<Word> values;
    network.setDeliverCallback([&](PEId, std::uint64_t, Word value) {
        values.push_back(value);
    });
    for (PEId pe = 0; pe < 64; ++pe)
        ASSERT_TRUE(network.tryInject(pe, Op::FetchAdd, 5, 1, pe))
            << "the paracomputer never refuses an injection";
    network.tick(); // inject cycle
    network.tick(); // completion cycle
    EXPECT_EQ(values.size(), 64u);
    EXPECT_EQ(memory.peek(5), 64);
    // All 64 simultaneous F&As completed in one cycle and returned
    // the partial sums 0..63.
    std::sort(values.begin(), values.end());
    for (Word i = 0; i < 64; ++i)
        EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(network.inFlight(), 0u);
}

TEST(NetworkStressTest, IdealModeRunsWholeMachine)
{
    core::MachineConfig cfg = core::MachineConfig::small(16, 2);
    cfg.net.idealParacomputer = true;
    core::Machine machine(cfg);
    const Addr counter = machine.allocShared(1);
    machine.launchAll(16, [&](pe::Pe &pe) -> pe::Task {
        for (int i = 0; i < 8; ++i) {
            const Word was = co_await pe.fetchAdd(counter, 1);
            (void)was;
        }
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(counter), 16 * 8);
}

TEST(NetworkStressTest, RepeatedBurstsLeaveNoResidue)
{
    NetSimConfig cfg;
    cfg.numPorts = 32;
    cfg.combinePolicy = CombinePolicy::Full;
    mem::MemoryConfig mc;
    mc.numModules = 32;
    mc.wordsPerModule = 256;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);
    std::uint64_t delivered = 0;
    network.setDeliverCallback(
        [&](PEId, std::uint64_t, Word) { ++delivered; });
    std::uint64_t injected = 0;
    for (int burst = 0; burst < 20; ++burst) {
        for (PEId pe = 0; pe < 32; ++pe) {
            while (!network.tryInject(pe, Op::FetchAdd,
                                      (burst * 3) % 16, 1, injected)) {
                network.tick();
            }
            ++injected;
        }
        ASSERT_TRUE(network.drain(100000));
        ASSERT_EQ(network.inFlight(), 0u) << "burst " << burst;
    }
    EXPECT_EQ(delivered, injected);
}

// ------------------------------------------------------------------
// Rerun identity under the nastiest configurations
// ------------------------------------------------------------------

/** One observed run: the full stats-registry dump plus the latency
 *  observatory's decomposition-violation count and kill tally. */
struct ObservedRun
{
    std::string json;
    std::uint64_t latViolations = 0;
    std::uint64_t kills = 0;
};

/**
 * Drive @p ncfg with PNI-mediated traffic for @p cycles with a latency
 * observatory attached, then drain.  Exercises the deferred kill path
 * (PNI retries) and the combining paths at once.
 */
ObservedRun
observeRun(const NetSimConfig &ncfg, const TrafficConfig &tcfg,
           Cycle cycles)
{
    mem::MemoryConfig mc;
    mc.numModules = ncfg.numPorts;
    mc.wordsPerModule = 1 << 10;
    mc.accessTime = ncfg.mmAccessTime;
    mem::MemorySystem memory(mc);
    Network network(ncfg, memory);
    mem::AddressHash hash(log2Exact(memory.totalWords()), true);
    PniConfig pcfg;
    pcfg.maxOutstanding = 4;
    PniArray pni(pcfg, network, hash);
    TrafficGenerator traffic(tcfg, pni, network);

    obs::LatencyShape shape;
    shape.stages = network.topology().stages();
    shape.switchesPerStage = network.topology().switchesPerStage();
    shape.mmAccessTime = ncfg.mmAccessTime;
    obs::LatencyObservatory latency(shape);
    network.setLatencyObservatory(&latency);

    obs::Registry registry;
    network.registerStats(registry, "net");
    pni.registerStats(registry, "pni");
    memory.registerStats(registry, "mem");
    latency.registerStats(registry, "lat");

    for (Cycle c = 0; c < cycles; ++c) {
        traffic.tick();
        pni.tick();
        network.tick();
    }
    network.drain(20'000);

    ObservedRun run;
    run.json = registry.jsonDump(network.now());
    run.latViolations = latency.violations();
    run.kills = network.stats().killed;
    return run;
}

TEST(NetworkStressTest, HotSpotStormIsDeterministic)
{
    // The paper's pathological case: most of the offered load aimed at
    // one hot word, full combining on, tight queues -- maximal
    // combined-away frees, decombine fission and wait-buffer churn.
    // The decomposition invariant must hold and a rerun must reproduce
    // the registry dump byte-for-byte.
    NetSimConfig ncfg;
    ncfg.numPorts = 64;
    ncfg.k = 2;
    ncfg.sizing = PacketSizing::ByContent;
    ncfg.dataPackets = 3;
    ncfg.queueCapacityPackets = 8;
    ncfg.mmPendingCapacityPackets = 8;
    ncfg.combinePolicy = CombinePolicy::Full;
    TrafficConfig tcfg;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = 0.5;
    tcfg.hotFraction = 0.8;
    tcfg.hotAddr = 21;
    tcfg.addrSpaceWords = 1 << 10;
    tcfg.seed = 99;

    const ObservedRun first = observeRun(ncfg, tcfg, 800);
    ASSERT_FALSE(first.json.empty());
    EXPECT_EQ(first.latViolations, 0u)
        << "latency decomposition invariant broken on the hot spot";
    EXPECT_EQ(first.json, observeRun(ncfg, tcfg, 800).json)
        << "hot-spot rerun diverged";
}

TEST(NetworkStressTest, BurroughsKillStormIsDeterministic)
{
    // Burroughs mode under saturation: blocked switches kill arriving
    // requests, the PNIs retry them after a delay.  Kills fire at the
    // end of the tick in arrival order, so the retry schedule -- and
    // the whole dump -- must reproduce exactly.
    NetSimConfig ncfg;
    ncfg.numPorts = 64;
    ncfg.k = 2;
    ncfg.combinePolicy = CombinePolicy::None;
    ncfg.burroughsKill = true;
    ncfg.queueCapacityPackets = 4;
    ncfg.mmPendingCapacityPackets = 4;
    TrafficConfig tcfg;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = 0.6;
    tcfg.hotFraction = 0.5;
    tcfg.hotAddr = 3;
    tcfg.addrSpaceWords = 1 << 9;
    tcfg.seed = 17;

    const ObservedRun first = observeRun(ncfg, tcfg, 800);
    ASSERT_FALSE(first.json.empty());
    EXPECT_GT(first.kills, 0u)
        << "config failed to provoke any Burroughs kills; the deferred "
           "kill path went unexercised";
    EXPECT_EQ(first.latViolations, 0u);
    EXPECT_EQ(first.json, observeRun(ncfg, tcfg, 800).json)
        << "Burroughs-kill rerun diverged";
}

/** The pool ledger must balance (live + free == capacity: no double
 *  free) and, once the network drained, hold no live message. */
void
expectPoolDrained(const Network &network, const char *what)
{
    const MessagePool::Audit a = network.poolAudit();
    EXPECT_TRUE(a.consistent())
        << what << ": slab accounting broke (" << a.live << " live + "
        << a.freeSlots << " free != " << a.capacity << " capacity)";
    EXPECT_EQ(a.live, 0u) << what << ": messages leaked";
}

TEST(NetworkStressTest, CombiningStormConservesPool)
{
    // Combined-away requests are freed at the switch that absorbs
    // them, spawned replies are allocated there: the one pool must
    // still balance after repeated fetch-and-add storms on one word.
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.k = 2;
    cfg.combinePolicy = CombinePolicy::Full;
    mem::MemoryConfig mc;
    mc.numModules = cfg.numPorts;
    mc.wordsPerModule = 256;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);

    for (int burst = 0; burst < 3; ++burst) {
        for (PEId pe = 0; pe < cfg.numPorts; ++pe) {
            while (!network.tryInject(pe, Op::FetchAdd, 5, 1, pe))
                network.tick();
        }
        ASSERT_TRUE(network.drain(200000));
    }
    EXPECT_GT(network.stats().combined, 0u);
    expectPoolDrained(network, "combining storm");
}

TEST(NetworkStressTest, BurroughsKillsConservePool)
{
    // Every killed request returns its slot to the pool.
    NetSimConfig cfg;
    cfg.numPorts = 64;
    cfg.k = 2;
    cfg.burroughsKill = true;
    cfg.combinePolicy = CombinePolicy::None;
    mem::MemoryConfig mc;
    mc.numModules = cfg.numPorts;
    mc.wordsPerModule = 256;
    mem::MemorySystem memory(mc);
    Network network(cfg, memory);

    std::uint64_t attempted = 0;
    for (int burst = 0; burst < 4; ++burst) {
        for (PEId pe = 0; pe < cfg.numPorts; ++pe) {
            // Everyone storms the same module: plenty of kills.
            if (network.tryInject(pe, Op::Load, 7, 0, pe))
                ++attempted;
        }
        network.tick();
    }
    ASSERT_TRUE(network.drain(200000));
    ASSERT_GT(attempted, 0u);
    EXPECT_GT(network.stats().killed, 0u);
    expectPoolDrained(network, "burroughs");
}

TEST(NetworkStressTest, Tred2ReproducesAcrossReruns)
{
    // Same seed, same bytes: TRED2 on randomized inputs must produce
    // the same cycles, result and stats when run twice on fresh
    // machines.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::size_t n = 12;
        const auto matrix = apps::randomSymmetric(n, seed);

        auto run = [&] {
            core::Machine machine(core::MachineConfig::small(64, 2));
            const auto result =
                apps::tred2Parallel(machine, 8, matrix, n);
            std::string out = std::to_string(result.cycles) + "|" +
                              machine.statsJson();
            for (double d : result.tri.diag)
                out += "," + std::to_string(d);
            return out;
        };
        EXPECT_EQ(run(), run()) << "seed " << seed;
    }
}

} // namespace
} // namespace ultra::net
