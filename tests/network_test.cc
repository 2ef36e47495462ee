/**
 * @file
 * End-to-end tests of the combining Omega network (section 3):
 * delivery of every op, the serialization principle under
 * fetch-and-add storms (with and without combining), finite-queue
 * backpressure, multiple network copies, and the Burroughs
 * kill-on-conflict baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "mem/memory_system.h"
#include "net/network.h"

namespace ultra::net
{
namespace
{

struct Delivery
{
    PEId pe;
    std::uint64_t tag;
    Word value;
};

struct Harness
{
    explicit Harness(const NetSimConfig &cfg)
        : memory(memCfg(cfg)), network(cfg, memory)
    {
        network.setDeliverCallback(
            [this](PEId pe, std::uint64_t tag, Word value) {
                deliveries.push_back({pe, tag, value});
            });
    }

    static mem::MemoryConfig
    memCfg(const NetSimConfig &cfg)
    {
        mem::MemoryConfig mc;
        mc.numModules = cfg.numPorts;
        mc.wordsPerModule = 1024;
        return mc;
    }

    /** Inject, retrying across cycles until accepted. */
    void
    injectRetrying(PEId pe, Op op, Addr paddr, Word data,
                   std::uint64_t tag)
    {
        while (!network.tryInject(pe, op, paddr, data, tag))
            network.tick();
    }

    bool
    runUntilDelivered(std::size_t count, Cycle max_cycles = 100000)
    {
        const Cycle deadline = network.now() + max_cycles;
        while (deliveries.size() < count && network.now() < deadline)
            network.tick();
        return deliveries.size() >= count;
    }

    mem::MemorySystem memory;
    Network network;
    std::vector<Delivery> deliveries;
};

NetSimConfig
smallConfig()
{
    NetSimConfig cfg;
    cfg.numPorts = 16;
    cfg.k = 2;
    cfg.combinePolicy = CombinePolicy::Full;
    return cfg;
}

TEST(NetworkTest, LoadRoundTrip)
{
    Harness h(smallConfig());
    h.memory.poke(5, 1234);
    ASSERT_TRUE(h.network.tryInject(3, Op::Load, 5, 0, 99));
    ASSERT_TRUE(h.runUntilDelivered(1));
    EXPECT_EQ(h.deliveries[0].pe, 3u);
    EXPECT_EQ(h.deliveries[0].tag, 99u);
    EXPECT_EQ(h.deliveries[0].value, 1234);
    EXPECT_EQ(h.network.inFlight(), 0u);
}

TEST(NetworkTest, RoundTripTimeAtZeroLoad)
{
    // One message: RTT = 2 hops onto/off the net + 2 transits
    // (stages each way) + pipe fill + memory access; should be close
    // to the analytic minimum and far from any congested value.
    Harness h(smallConfig());
    ASSERT_TRUE(h.network.tryInject(0, Op::Load, 7, 0, 0));
    ASSERT_TRUE(h.runUntilDelivered(1));
    const auto &stats = h.network.stats();
    const double rtt = stats.roundTrip.mean();
    const double stages = 4; // log2(16)
    EXPECT_GE(rtt, 2 * stages);
    EXPECT_LE(rtt, 2 * stages + 16);
}

TEST(NetworkTest, AllOpsExecuteCorrectly)
{
    Harness h(smallConfig());
    h.memory.poke(10, 100);
    std::uint64_t tag = 0;
    h.injectRetrying(0, Op::FetchAdd, 10, 5, tag++); // ->100, mem 105
    ASSERT_TRUE(h.runUntilDelivered(1));
    h.injectRetrying(1, Op::Swap, 10, 7, tag++); // ->105, mem 7
    ASSERT_TRUE(h.runUntilDelivered(2));
    h.injectRetrying(2, Op::Load, 10, 0, tag++); // ->7
    ASSERT_TRUE(h.runUntilDelivered(3));
    h.injectRetrying(3, Op::Store, 10, 9, tag++); // ack, mem 9
    ASSERT_TRUE(h.runUntilDelivered(4));
    h.injectRetrying(4, Op::TestAndSet, 10, 0, tag++); // ->9, mem 1
    ASSERT_TRUE(h.runUntilDelivered(5));

    EXPECT_EQ(h.deliveries[0].value, 100);
    EXPECT_EQ(h.deliveries[1].value, 105);
    EXPECT_EQ(h.deliveries[2].value, 7);
    EXPECT_EQ(h.deliveries[4].value, 9);
    EXPECT_EQ(h.memory.peek(10), 1);
}

/**
 * The serialization principle (section 2.2) under a fetch-and-add
 * storm: every PE adds its increment to one variable; the returned
 * values must be exactly the partial sums of some permutation of the
 * increments, and the final value the total sum.
 */
void
checkFetchAddStorm(NetSimConfig cfg, bool expect_combining)
{
    Harness h(cfg);
    const Addr target = 3;
    const std::uint32_t pes = cfg.numPorts;
    std::vector<Word> increments(pes);
    for (PEId pe = 0; pe < pes; ++pe) {
        increments[pe] = 1 + static_cast<Word>(pe % 7);
        h.injectRetrying(pe, Op::FetchAdd, target, increments[pe],
                         pe);
    }
    ASSERT_TRUE(h.runUntilDelivered(pes));

    Word total = 0;
    for (Word inc : increments)
        total += inc;
    EXPECT_EQ(h.memory.peek(target), total);

    // Reconstruct: sort deliveries by returned value; they must form a
    // chain 0 = v0 < v1 < ... with v_{i+1} = v_i + inc(pe_i) for some
    // ordering, i.e. the multiset { value + its own increment } must
    // equal the multiset { next value } plus { total }.
    std::vector<std::pair<Word, Word>> seen; // (old value, increment)
    for (const auto &d : h.deliveries)
        seen.emplace_back(d.value, increments[d.pe]);
    std::sort(seen.begin(), seen.end());
    Word running = 0;
    for (const auto &[old_value, inc] : seen) {
        EXPECT_EQ(old_value, running)
            << "returned values are not the partial sums of any "
               "serialization";
        running += inc;
    }
    EXPECT_EQ(running, total);

    if (expect_combining)
        EXPECT_GT(h.network.stats().combined, 0u);
    else
        EXPECT_EQ(h.network.stats().combined, 0u);
}

TEST(NetworkTest, FetchAddStormWithCombining)
{
    checkFetchAddStorm(smallConfig(), true);
}

TEST(NetworkTest, FetchAddStormWithoutCombining)
{
    NetSimConfig cfg = smallConfig();
    cfg.combinePolicy = CombinePolicy::None;
    checkFetchAddStorm(cfg, false);
}

TEST(NetworkTest, FetchAddStormHomogeneousPolicy)
{
    NetSimConfig cfg = smallConfig();
    cfg.combinePolicy = CombinePolicy::Homogeneous;
    checkFetchAddStorm(cfg, true);
}

TEST(NetworkTest, FetchAddStormLargerSwitches)
{
    NetSimConfig cfg = smallConfig();
    cfg.k = 4;
    cfg.numPorts = 64;
    checkFetchAddStorm(cfg, true);
}

TEST(NetworkTest, FetchAddStormMultiCombine)
{
    NetSimConfig cfg = smallConfig();
    cfg.maxCombinesPerVisit = 8;
    cfg.combinePolicy = CombinePolicy::Homogeneous;
    checkFetchAddStorm(cfg, true);
}

TEST(NetworkTest, CombiningReducesMemoryTraffic)
{
    // The key property of section 3.1.2: any number of concurrent
    // references to one location can be satisfied with far fewer
    // memory accesses than references.
    NetSimConfig cfg = smallConfig();
    Harness h(cfg);
    for (PEId pe = 0; pe < cfg.numPorts; ++pe)
        h.injectRetrying(pe, Op::FetchAdd, 3, 1, pe);
    ASSERT_TRUE(h.runUntilDelivered(cfg.numPorts));
    EXPECT_LT(h.network.stats().mmServed, cfg.numPorts);
    EXPECT_EQ(h.network.stats().delivered, cfg.numPorts);
    EXPECT_EQ(h.network.stats().combined,
              h.network.stats().decombined);
}

TEST(NetworkTest, MixedOpsToSameLocationWithFullCombining)
{
    // Loads, stores and fetch-and-adds colliding on one location must
    // all complete, and the final value must equal SOME serialization:
    // with stores of the same value and FAs of +1, the end state is
    // checkable exactly.
    NetSimConfig cfg = smallConfig();
    Harness h(cfg);
    const Addr target = 4;
    // 8 FA(+1), 4 Load, 4 Store(1000).
    std::uint64_t tag = 0;
    for (PEId pe = 0; pe < 8; ++pe)
        h.injectRetrying(pe, Op::FetchAdd, target, 1, tag++);
    for (PEId pe = 8; pe < 12; ++pe)
        h.injectRetrying(pe, Op::Load, target, 0, tag++);
    for (PEId pe = 12; pe < 16; ++pe)
        h.injectRetrying(pe, Op::Store, target, 1000, tag++);
    ASSERT_TRUE(h.runUntilDelivered(16));
    // Final value: 1000 + (FAs serialized after the last store), i.e.
    // in [1000, 1008] or [0, 8] if every store preceded... no: the
    // last serialized store resets to 1000, then any remaining FAs
    // add 1 each.  Value must be 1000 + j for some 0 <= j <= 8.
    const Word final_value = h.memory.peek(target);
    EXPECT_GE(final_value, 1000);
    EXPECT_LE(final_value, 1008);
    EXPECT_EQ(h.network.inFlight(), 0u);
}

TEST(NetworkTest, MixedOpsUnderTightQueues)
{
    // Reply fission with rewrites (Load-Store, FA-Store upgrades) must
    // stay consistent even when queues barely hold one data message.
    NetSimConfig cfg = smallConfig();
    cfg.queueCapacityPackets = 3;
    cfg.mmPendingCapacityPackets = 3;
    Harness h(cfg);
    const Addr target = 4;
    std::uint64_t tag = 0;
    for (int wave = 0; wave < 3; ++wave) {
        for (PEId pe = 0; pe < 8; ++pe)
            h.injectRetrying(pe, Op::FetchAdd, target, 1, tag++);
        for (PEId pe = 8; pe < 12; ++pe)
            h.injectRetrying(pe, Op::Load, target, 0, tag++);
        for (PEId pe = 12; pe < 16; ++pe)
            h.injectRetrying(pe, Op::Store, target, 5000, tag++);
    }
    ASSERT_TRUE(h.runUntilDelivered(tag, 300000));
    const Word final_value = h.memory.peek(target);
    // Some serialization of 24 FAs(+1) and 12 Stores(5000): final is
    // 5000 + j for 0 <= j <= 24, or j alone if no store serialized
    // last -- the latter is impossible only if a store exists, so:
    EXPECT_GE(final_value, 5000);
    EXPECT_LE(final_value, 5024);
    EXPECT_EQ(h.network.inFlight(), 0u);
}

TEST(NetworkTest, TinyQueuesBackpressureWithoutLoss)
{
    NetSimConfig cfg = smallConfig();
    cfg.queueCapacityPackets = 3; // one data message
    cfg.mmPendingCapacityPackets = 3;
    Harness h(cfg);
    std::uint64_t tag = 0;
    // Everybody hammers module 0 (worst case for backpressure).
    for (int wave = 0; wave < 4; ++wave)
        for (PEId pe = 0; pe < cfg.numPorts; ++pe)
            h.injectRetrying(pe, Op::FetchAdd, 0, 1, tag++);
    ASSERT_TRUE(h.runUntilDelivered(tag, 200000));
    EXPECT_EQ(h.memory.peek(0), static_cast<Word>(tag));
    EXPECT_EQ(h.network.inFlight(), 0u);
}

TEST(NetworkTest, UniformSizingAndLargeM)
{
    NetSimConfig cfg = smallConfig();
    cfg.sizing = PacketSizing::Uniform;
    cfg.m = 4;
    Harness h(cfg);
    for (PEId pe = 0; pe < cfg.numPorts; ++pe)
        h.injectRetrying(pe, Op::FetchAdd, pe, 2, pe);
    ASSERT_TRUE(h.runUntilDelivered(cfg.numPorts));
    for (PEId pe = 0; pe < cfg.numPorts; ++pe)
        EXPECT_EQ(h.memory.peek(pe), 2);
}

TEST(NetworkTest, MultipleCopiesDeliverEverything)
{
    NetSimConfig cfg = smallConfig();
    cfg.d = 3;
    Harness h(cfg);
    std::uint64_t tag = 0;
    for (int wave = 0; wave < 3; ++wave)
        for (PEId pe = 0; pe < cfg.numPorts; ++pe)
            h.injectRetrying(pe, Op::FetchAdd, (pe + wave) % 16, 1,
                             tag++);
    ASSERT_TRUE(h.runUntilDelivered(tag));
    Word total = 0;
    for (Addr a = 0; a < 16; ++a)
        total += h.memory.peek(a);
    EXPECT_EQ(total, static_cast<Word>(tag));
}

TEST(NetworkTest, CopiesIncreaseInjectionBandwidth)
{
    // A PE can have one message per copy in flight on its links: with
    // d copies, back-to-back injections accept d messages immediately.
    NetSimConfig cfg = smallConfig();
    cfg.d = 2;
    Harness h(cfg);
    EXPECT_TRUE(h.network.tryInject(0, Op::Store, 1, 1, 0));
    EXPECT_TRUE(h.network.tryInject(0, Op::Store, 2, 1, 1));
    EXPECT_FALSE(h.network.tryInject(0, Op::Store, 3, 1, 2));
}

TEST(NetworkTest, BurroughsModeKillsAndRetriesComplete)
{
    NetSimConfig cfg = smallConfig();
    cfg.burroughsKill = true;
    cfg.combinePolicy = CombinePolicy::None;
    Harness h(cfg);

    // Track kills and re-inject on the next cycle.
    std::vector<std::pair<PEId, std::uint64_t>> killed;
    h.network.setKillCallback(
        [&](PEId pe, std::uint64_t tag) { killed.emplace_back(pe, tag); });

    const std::uint32_t pes = cfg.numPorts;
    for (PEId pe = 0; pe < pes; ++pe)
        h.injectRetrying(pe, Op::FetchAdd, 0, 1, pe);

    Cycle guard = 0;
    while (h.deliveries.size() < pes && guard++ < 100000) {
        if (!killed.empty()) {
            auto [pe, tag] = killed.back();
            if (h.network.tryInject(pe, Op::FetchAdd, 0, 1, tag))
                killed.pop_back();
        }
        h.network.tick();
    }
    ASSERT_EQ(h.deliveries.size(), pes);
    EXPECT_EQ(h.memory.peek(0), static_cast<Word>(pes));
    // Conflicts on the hot path must actually have killed something.
    EXPECT_GT(h.network.stats().killed, 0u);
}

TEST(NetworkTest, DeterministicAcrossRuns)
{
    auto run = [] {
        Harness h(smallConfig());
        for (PEId pe = 0; pe < 16; ++pe)
            h.injectRetrying(pe, Op::FetchAdd, pe % 3, 1, pe);
        h.runUntilDelivered(16);
        return std::make_tuple(h.network.now(),
                               h.network.stats().combined,
                               h.network.stats().roundTrip.mean());
    };
    EXPECT_EQ(run(), run());
}

TEST(NetworkTest, InvalidConfigsRejected)
{
    NetSimConfig cfg;
    cfg.numPorts = 24; // not a power of two
    EXPECT_FALSE(cfg.valid());
    cfg = NetSimConfig{};
    cfg.numPorts = 8;
    cfg.k = 4; // 8 is not a power of 4
    EXPECT_FALSE(cfg.valid());
    cfg = NetSimConfig{};
    cfg.queueCapacityPackets = 2; // smaller than one data message
    EXPECT_FALSE(cfg.valid());
    cfg = NetSimConfig{};
    EXPECT_TRUE(cfg.valid());
}

TEST(NetworkTest, DrainCompletesAndReportsTime)
{
    Harness h(smallConfig());
    for (PEId pe = 0; pe < 16; ++pe)
        h.injectRetrying(pe, Op::Store, pe, 7, pe);
    EXPECT_TRUE(h.network.drain(10000));
    EXPECT_EQ(h.network.inFlight(), 0u);
    EXPECT_EQ(h.deliveries.size(), 16u);
}

} // namespace
} // namespace ultra::net
