/**
 * @file
 * Tests of the processor-network interfaces (section 3.4) and the
 * synthetic traffic sources: FIFO issue, the one-outstanding-reference-
 * per-location rule, outstanding-window limiting, hashing at the PNI,
 * and open/closed-loop generation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/json_lite.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/pni.h"
#include "net/traffic.h"
#include "obs/event_trace.h"

namespace ultra::net
{
namespace
{

struct Rig
{
    explicit Rig(NetSimConfig net_cfg, PniConfig pni_cfg = {},
                 bool hash_on = false)
        : memory(memCfg(net_cfg)), network(net_cfg, memory),
          hash(log2Exact(memory.totalWords()), hash_on),
          pni(pni_cfg, network, hash)
    {
        pni.setCompleteCallback(
            [this](PEId pe, std::uint64_t ticket, Word value) {
                completions.emplace_back(pe, ticket, value);
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

    void
    runCycles(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            pni.tick();
            network.tick();
        }
    }

    mem::MemorySystem memory;
    Network network;
    mem::AddressHash hash;
    PniArray pni;
    std::vector<std::tuple<PEId, std::uint64_t, Word>> completions;
};

NetSimConfig
smallNet()
{
    NetSimConfig cfg;
    cfg.numPorts = 16;
    cfg.k = 2;
    cfg.combinePolicy = CombinePolicy::Full;
    return cfg;
}

TEST(PniTest, RequestCompletesWithValue)
{
    Rig rig(smallNet());
    rig.memory.poke(9, 77);
    const auto ticket = rig.pni.request(0, Op::Load, 9, 0);
    rig.runCycles(200);
    ASSERT_EQ(rig.completions.size(), 1u);
    EXPECT_EQ(std::get<1>(rig.completions[0]), ticket);
    EXPECT_EQ(std::get<2>(rig.completions[0]), 77);
    EXPECT_TRUE(rig.pni.idle(0));
}

TEST(PniTest, FifoIssuePerPe)
{
    // Completions of same-PE requests to the same module preserve
    // issue order (FIFO issue + FIFO queues + FIFO module service).
    Rig rig(smallNet());
    for (int i = 0; i < 6; ++i)
        rig.pni.request(0, Op::FetchAdd, 0, 1);
    rig.runCycles(2000);
    ASSERT_EQ(rig.completions.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(std::get<2>(rig.completions[i]), i);
}

TEST(PniTest, IssuesInPeIdOrderWhateverTheRequestOrder)
{
    // PEs request in descending id order within one cycle; the PNIs
    // still hand their requests to the network in ascending PE id,
    // the canonical serial order the goldens pin.
    Rig rig(smallNet());
    obs::EventTrace trace;
    rig.network.setEventTrace(&trace);
    const std::vector<PEId> requesters = {14, 11, 7, 3, 0};
    for (PEId pe : requesters)
        rig.pni.request(pe, Op::Load, 100 + pe, 0);
    rig.pni.tick();

    std::vector<PEId> injected;
    const auto doc = jsonlite::parse(trace.json());
    for (const auto &e : doc["traceEvents"].array) {
        if (e["name"].string == "inject")
            injected.push_back(static_cast<PEId>(e["tid"].number));
    }
    EXPECT_EQ(injected, std::vector<PEId>(requesters.rbegin(),
                                          requesters.rend()));
    rig.network.setEventTrace(nullptr);
}

TEST(PniTest, UniqueLocationRuleSerializesSameAddress)
{
    // Two requests to one location from one PE must not be in flight
    // together; the second waits for the first's reply.
    Rig rig(smallNet());
    rig.pni.request(0, Op::FetchAdd, 5, 1);
    rig.pni.request(0, Op::FetchAdd, 5, 1);
    rig.pni.tick();
    rig.network.tick();
    // After one tick only the first can be outstanding.
    EXPECT_EQ(rig.pni.pendingCount(0), 2u);
    rig.runCycles(500);
    EXPECT_EQ(rig.completions.size(), 2u);
    EXPECT_EQ(rig.memory.peek(5), 2);
}

TEST(PniTest, MaxOutstandingWindow)
{
    PniConfig pni_cfg;
    pni_cfg.maxOutstanding = 2;
    Rig rig(smallNet(), pni_cfg);
    for (Addr a = 0; a < 8; ++a)
        rig.pni.request(0, Op::Load, a, 0);
    // All eventually complete despite the tiny window.
    rig.runCycles(2000);
    EXPECT_EQ(rig.completions.size(), 8u);
    EXPECT_EQ(rig.pni.stats().completed, 8u);
}

TEST(PniTest, HashingStillRoutesCorrectly)
{
    Rig rig(smallNet(), PniConfig{}, true);
    // With hashing on, the PNI translates; values must still come back
    // right because the memory is poked through the same hash.
    const Addr vaddr = 100;
    rig.memory.poke(rig.hash.toPhysical(vaddr), 4242);
    rig.pni.request(0, Op::Load, vaddr, 0);
    rig.runCycles(300);
    ASSERT_EQ(rig.completions.size(), 1u);
    EXPECT_EQ(std::get<2>(rig.completions[0]), 4242);
}

TEST(PniTest, AccessTimeStatIncludesQueueing)
{
    Rig rig(smallNet());
    for (int i = 0; i < 4; ++i)
        rig.pni.request(0, Op::FetchAdd, 3, 1);
    rig.runCycles(1000);
    // Later requests waited on the unique-location rule, so the mean
    // access time well exceeds the raw round trip.
    EXPECT_EQ(rig.pni.stats().completed, 4u);
    EXPECT_GT(rig.pni.stats().accessTime.max(),
              rig.pni.stats().accessTime.min() * 2.0);
}

TEST(TrafficTest, OpenLoopGeneratesAtConfiguredRate)
{
    Rig rig(smallNet());
    TrafficConfig tc;
    tc.activePes = 16;
    tc.rate = 0.1;
    tc.addrSpaceWords = 1024;
    TrafficGenerator gen(tc, rig.pni, rig.network);
    gen.run(2000);
    const double expected = 16 * 0.1 * 2000;
    EXPECT_NEAR(static_cast<double>(gen.generated()), expected,
                expected * 0.15);
    EXPECT_TRUE(gen.drain(50000));
    EXPECT_EQ(rig.pni.stats().completed, gen.generated());
}

TEST(TrafficTest, ClosedLoopKeepsWindowFull)
{
    Rig rig(smallNet());
    TrafficConfig tc;
    tc.activePes = 8;
    tc.closedLoop = true;
    tc.window = 2;
    tc.addrSpaceWords = 1024;
    TrafficGenerator gen(tc, rig.pni, rig.network);
    gen.run(500);
    // A completion in the last cycle may have briefly dropped a PE to
    // window - 1; after the generator's next refill every active PE
    // has exactly `window` requests pending again.
    gen.tick();
    for (PEId pe = 0; pe < 8; ++pe)
        EXPECT_EQ(rig.pni.pendingCount(pe), 2u);
    EXPECT_TRUE(gen.drain(50000));
}

TEST(TrafficTest, HotspotTrafficCombines)
{
    Rig rig(smallNet());
    TrafficConfig tc;
    tc.activePes = 16;
    tc.rate = 0.2;
    tc.hotFraction = 1.0; // everything to one F&A cell
    tc.hotAddr = 7;
    TrafficGenerator gen(tc, rig.pni, rig.network);
    gen.run(2000);
    ASSERT_TRUE(gen.drain(100000));
    // All increments arrived...
    EXPECT_EQ(rig.memory.peek(rig.hash.toPhysical(7)),
              static_cast<Word>(gen.generated()));
    // ...and combining absorbed a good share of them.
    EXPECT_GT(rig.network.stats().combined, gen.generated() / 10);
}

TEST(TrafficTest, BurroughsRetriesThroughPni)
{
    NetSimConfig net_cfg = smallNet();
    net_cfg.burroughsKill = true;
    net_cfg.combinePolicy = CombinePolicy::None;
    Rig rig(net_cfg);
    TrafficConfig tc;
    tc.activePes = 16;
    tc.rate = 0.15;
    tc.addrSpaceWords = 512;
    TrafficGenerator gen(tc, rig.pni, rig.network);
    gen.run(1500);
    ASSERT_TRUE(gen.drain(200000));
    EXPECT_EQ(rig.pni.stats().completed, gen.generated());
    EXPECT_GT(rig.network.stats().killed, 0u);
    EXPECT_EQ(rig.pni.stats().retries, rig.network.stats().killed);
}

} // namespace
} // namespace ultra::net
