/**
 * @file
 * Tests of traffic-trace recording and replay (the section-4.2
 * methodology): recording is lossless and time-ordered, replay drives
 * the same functional operations, and replaying into an identical
 * network reproduces the original access-time profile.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/machine.h"
#include "mem/address_hash.h"
#include "net/trace.h"

namespace ultra::net
{
namespace
{

using core::Machine;
using core::MachineConfig;
using pe::Pe;
using pe::Task;

MachineConfig
machineCfg()
{
    MachineConfig cfg = MachineConfig::small(16, 2);
    cfg.net.combinePolicy = CombinePolicy::Full;
    return cfg;
}

Trace
recordCounterStorm()
{
    Machine machine(machineCfg());
    TraceRecorder recorder(machine.pni());
    const Addr counter = machine.allocShared(1);
    machine.launchAll(16, [counter](Pe &pe) -> Task {
        for (int i = 0; i < 6; ++i) {
            const Word was = co_await pe.fetchAdd(counter, 1);
            (void)was;
            co_await pe.compute(10);
        }
    });
    machine.run();
    return recorder.take();
}

TEST(TraceTest, RecordingIsLosslessAndOrdered)
{
    const Trace trace = recordCounterStorm();
    EXPECT_EQ(trace.entries.size(), 16u * 6u);
    for (std::size_t i = 1; i < trace.entries.size(); ++i)
        EXPECT_GE(trace.entries[i].at, trace.entries[i - 1].at);
    EXPECT_GT(trace.duration(), 0u);
    EXPECT_GT(trace.intensity(16), 0.0);
    EXPECT_LT(trace.intensity(16), 1.0);
}

TEST(TraceTest, RecorderDetachesOnTake)
{
    Machine machine(machineCfg());
    TraceRecorder recorder(machine.pni());
    const Addr a = machine.allocShared(1);
    machine.launch(0, [a](Pe &pe) -> Task {
        const Word was = co_await pe.fetchAdd(a, 1);
        (void)was;
    });
    machine.run();
    const Trace first = recorder.take();
    EXPECT_EQ(first.entries.size(), 1u);
    // Further traffic is not recorded into the taken trace.
    machine.launch(0, [a](Pe &pe) -> Task {
        const Word was = co_await pe.fetchAdd(a, 1);
        (void)was;
    });
    machine.run();
    EXPECT_EQ(recorder.recorded(), 0u);
}

struct ReplayRig
{
    explicit ReplayRig(const NetSimConfig &ncfg)
        : memory(memCfg(ncfg)), network(ncfg, memory),
          hash(log2Exact(memory.totalWords()), true),
          pni(PniConfig{}, network, hash)
    {}

    static mem::MemoryConfig
    memCfg(const NetSimConfig &ncfg)
    {
        mem::MemoryConfig mc;
        mc.numModules = ncfg.numPorts;
        mc.wordsPerModule = 1 << 12;
        return mc;
    }

    mem::MemorySystem memory;
    Network network;
    mem::AddressHash hash;
    PniArray pni;
};

TEST(TraceTest, ReplayExecutesSameOperations)
{
    const Trace trace = recordCounterStorm();
    NetSimConfig ncfg;
    ncfg.numPorts = 16;
    ncfg.combinePolicy = CombinePolicy::Full;
    ReplayRig rig(ncfg);
    const auto result = replayTrace(trace, rig.pni, rig.network);
    EXPECT_EQ(result.requests, trace.entries.size());
    // The 96 fetch-and-adds all landed on the counter.
    const Addr counter_paddr =
        rig.hash.toPhysical(trace.entries.front().vaddr);
    EXPECT_EQ(rig.memory.peek(counter_paddr), 96);
    EXPECT_GT(result.meanAccessTime, 0.0);
}

TEST(TraceTest, IdenticalNetworkReproducesProfile)
{
    const Trace trace = recordCounterStorm();
    NetSimConfig same;
    same.numPorts = 16;
    same.combinePolicy = CombinePolicy::Full;
    ReplayRig rig_a(same);
    ReplayRig rig_b(same);
    const auto a = replayTrace(trace, rig_a.pni, rig_a.network);
    const auto b = replayTrace(trace, rig_b.pni, rig_b.network);
    EXPECT_DOUBLE_EQ(a.meanAccessTime, b.meanAccessTime)
        << "replay must be deterministic";
    EXPECT_EQ(a.finishedAt, b.finishedAt);
}

TEST(TraceTest, FasterNetworkLowersAccessTime)
{
    const Trace trace = recordCounterStorm();
    NetSimConfig slow;
    slow.numPorts = 16;
    slow.combinePolicy = CombinePolicy::None;
    NetSimConfig fast = slow;
    fast.combinePolicy = CombinePolicy::Full;
    ReplayRig rig_slow(slow);
    ReplayRig rig_fast(fast);
    const auto r_slow = replayTrace(trace, rig_slow.pni,
                                    rig_slow.network);
    const auto r_fast = replayTrace(trace, rig_fast.pni,
                                    rig_fast.network);
    EXPECT_LT(r_fast.meanAccessTime, r_slow.meanAccessTime)
        << "combining must help this hot-counter trace";
}

TEST(TraceTest, SaveLoadRoundTrip)
{
    const Trace trace = recordCounterStorm();
    const std::string path = "/tmp/ultra_trace_test.csv";
    ASSERT_TRUE(saveTrace(trace, path));
    std::string err;
    const Trace loaded = loadTrace(path, err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(loaded.entries.size(), trace.entries.size());
    for (std::size_t i = 0; i < trace.entries.size(); ++i) {
        EXPECT_EQ(loaded.entries[i].at, trace.entries[i].at);
        EXPECT_EQ(loaded.entries[i].pe, trace.entries[i].pe);
        EXPECT_EQ(loaded.entries[i].op, trace.entries[i].op);
        EXPECT_EQ(loaded.entries[i].vaddr, trace.entries[i].vaddr);
        EXPECT_EQ(loaded.entries[i].data, trace.entries[i].data);
    }
    std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsMalformedLinesNamingTheLine)
{
    // A bad line fails the whole load: never a silently shortened
    // trace.
    const std::string path = "/tmp/ultra_trace_bad.csv";
    const struct
    {
        const char *text;
        const char *where;
    } cases[] = {
        {"0,1,0,5,0\n1,2,0,6,0\ngarbage\n", ":3: expected"},
        {"0,1,0,5,0\n1,2,0,6\n", ":2: expected"},
        {"0,1,0,5,0,9\n", ":1: expected"},
        {"0,-1,0,5,0\n", ":1: expected"},
        {"0,1,99,5,0\n", ":1: expected"},
        {"5,1,0,5,0\n4,1,0,5,0\n", ":2: cycle goes backwards"},
    };
    for (const auto &c : cases) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(c.text, f);
        std::fclose(f);
        std::string err;
        const Trace loaded = loadTrace(path, err);
        EXPECT_TRUE(loaded.entries.empty()) << c.text;
        EXPECT_NE(err.find(path + c.where), std::string::npos)
            << c.text << ": " << err;
    }
    std::remove(path.c_str());

    std::string err;
    loadTrace("/nonexistent-dir/trace.csv", err);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    EXPECT_FALSE(saveTrace(Trace{}, "/nonexistent-dir/trace.csv"));
}

} // namespace
} // namespace ultra::net
