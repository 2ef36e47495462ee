/**
 * @file
 * Tests of the coroutine PE model (section 3.5): blocking and
 * non-blocking memory operations, register locking via LoadHandle,
 * instruction timing, idle-cycle accounting, and nested-task
 * composition.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.h"
#include "pe/pe.h"

namespace ultra
{
namespace
{

using core::Machine;
using core::MachineConfig;
using pe::Pe;
using pe::Task;

MachineConfig
testConfig()
{
    return MachineConfig::small(16, 2);
}

TEST(PeTest, BlockingOpsRoundTrip)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(4);
    machine.poke(a, 7);

    Word loaded = -1, old_fa = -1, old_swap = -1, old_tas = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        loaded = co_await pe.load(a);
        old_fa = co_await pe.fetchAdd(a, 10);
        old_swap = co_await pe.swap(a, 50);
        old_tas = co_await pe.testAndSet(a + 1);
        co_await pe.store(a + 2, 123);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(loaded, 7);
    EXPECT_EQ(old_fa, 7);
    EXPECT_EQ(old_swap, 17);
    EXPECT_EQ(old_tas, 0);
    EXPECT_EQ(machine.peek(a), 50);
    EXPECT_EQ(machine.peek(a + 1), 1);
    EXPECT_EQ(machine.peek(a + 2), 123);
}

TEST(PeTest, GenericFetchPhi)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);
    machine.poke(a, 0b1100);
    Word old_or = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        old_or = co_await pe.fetchPhi(net::Op::FetchOr, a, 0b0011);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(old_or, 0b1100);
    EXPECT_EQ(machine.peek(a), 0b1111);
}

TEST(PeTest, ComputeAdvancesTime)
{
    Machine machine(testConfig());
    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.compute(100); // 100 instructions x 2 cycles
    });
    ASSERT_TRUE(machine.run());
    EXPECT_GE(machine.now(), 200u);
    EXPECT_LE(machine.now(), 230u);
    const auto &stats = machine.peAt(0).stats();
    EXPECT_EQ(stats.instructions, 100u);
    EXPECT_EQ(stats.busyCycles, 200u);
    EXPECT_EQ(stats.idleCycles, 0u);
}

TEST(PeTest, BlockingLoadAccruesIdleCycles)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);
    machine.launch(0, [&](Pe &pe) -> Task {
        (void)co_await pe.load(a);
    });
    ASSERT_TRUE(machine.run());
    const auto &stats = machine.peAt(0).stats();
    EXPECT_EQ(stats.instructions, 1u);
    EXPECT_EQ(stats.sharedRefs, 1u);
    // RTT through an 8-stage round trip: blocked well over 4 cycles.
    EXPECT_GT(stats.idleCycles, 4u);
}

TEST(PeTest, PrefetchOverlapsComputation)
{
    // The register-locking behaviour: a prefetched load costs less
    // idle time than a blocking one when there is work to overlap.
    auto idle_with = [](bool prefetch) {
        Machine machine(testConfig());
        const Addr a = machine.allocShared(1);
        machine.launch(0, [&, prefetch](Pe &pe) -> Task {
            if (prefetch) {
                auto handle = pe.startLoad(a);
                co_await pe.compute(30);
                (void)co_await handle;
            } else {
                (void)co_await pe.load(a);
                co_await pe.compute(30);
            }
        });
        machine.run();
        return machine.peAt(0).stats().idleCycles;
    };
    EXPECT_LT(idle_with(true), idle_with(false));
    EXPECT_EQ(idle_with(true), 0u); // 60 cycles fully covers the RTT
}

TEST(PeTest, AwaitingReadyHandleIsFree)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);
    machine.poke(a, 5);
    Word v = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        auto handle = pe.startLoad(a);
        co_await pe.compute(50);
        EXPECT_TRUE(handle.ready());
        v = co_await handle;
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(v, 5);
}

TEST(PeTest, PostStoreAndFence)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(8);
    machine.launch(0, [&](Pe &pe) -> Task {
        for (Addr i = 0; i < 8; ++i)
            pe.postStore(a + i, static_cast<Word>(i * i));
        co_await pe.fence();
    });
    ASSERT_TRUE(machine.run());
    for (Addr i = 0; i < 8; ++i)
        EXPECT_EQ(machine.peek(a + i), static_cast<Word>(i * i));
}

TEST(PeTest, TaskEndWaitsForOutstandingAsyncOps)
{
    // A program ending with un-fenced postStores is only finished()
    // once they complete; the machine must not report success before
    // the stores land.
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);
    machine.launch(0, [&](Pe &pe) -> Task {
        pe.postStore(a, 42);
        co_return;
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(a), 42);
}

TEST(PeTest, HandlesAwaitedOutOfIssueOrder)
{
    // Replies are matched to requests by ticket, whatever order the
    // handles are awaited in and whichever context issued them.
    Machine machine(testConfig());
    const Addr a = machine.allocShared(3);
    const Addr ctr = machine.allocShared(1);
    const Addr out = machine.allocShared(8);
    machine.poke(a, 11);
    machine.poke(a + 1, 22);
    machine.poke(a + 2, 33);

    Word v0 = -1, v1 = -1, v2 = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        auto h0 = pe.startLoad(a);
        auto h1 = pe.startLoad(a + 1);
        auto h2 = pe.startLoad(a + 2);
        v2 = co_await h2;
        v1 = co_await h1;
        v0 = co_await h0;
    });
    std::vector<Word> olds;
    Word after_fence = -1;
    machine.launchExtra(0, [&](Pe &pe) -> Task {
        for (int i = 0; i < 4; ++i) {
            const Word old = co_await pe.fetchAdd(ctr, 1);
            olds.push_back(old);
        }
        for (Addr i = 0; i < 8; ++i)
            pe.postStore(out + i, static_cast<Word>(100 + i));
        co_await pe.fence();
        after_fence = co_await pe.load(out + 7);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_TRUE(machine.peAt(0).finished());
    EXPECT_EQ(v0, 11);
    EXPECT_EQ(v1, 22);
    EXPECT_EQ(v2, 33);
    EXPECT_EQ(olds, (std::vector<Word>{0, 1, 2, 3}));
    EXPECT_EQ(machine.peek(ctr), 4);
    EXPECT_EQ(after_fence, 107);
    for (Addr i = 0; i < 8; ++i)
        EXPECT_EQ(machine.peek(out + i), static_cast<Word>(100 + i));
}

TEST(PeDeathTest, CacheReleaseWithoutCacheNamesThePe)
{
    EXPECT_DEATH(
        {
            Machine machine(testConfig());
            machine.peAt(3).cacheRelease(0, 15);
        },
        "PE 3 has no cache");
}

TEST(PeTest, NestedTasksCompose)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);

    // A subroutine that performs two memory operations.
    auto subroutine = [](Pe &pe, Addr addr, Word delta) -> Task {
        const Word old_value = co_await pe.fetchAdd(addr, delta);
        co_await pe.store(addr + 0, old_value + delta); // idempotent
    };

    machine.launch(0, [&](Pe &pe) -> Task {
        co_await subroutine(pe, a, 3);
        co_await subroutine(pe, a, 4);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(a), 7);
}

TEST(PeTest, DeeplyNestedTasks)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);

    std::function<Task(Pe &, int)> recurse = [&](Pe &pe,
                                                 int depth) -> Task {
        co_await pe.fetchAdd(a, 1);
        if (depth > 0)
            co_await recurse(pe, depth - 1);
    };
    machine.launch(0,
                   [&](Pe &pe) -> Task { co_await recurse(pe, 9); });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(a), 10);
}

TEST(PeTest, TwoPesInterleaveOnSharedCounter)
{
    Machine machine(testConfig());
    const Addr ctr = machine.allocShared(1);
    const Addr results = machine.allocShared(64);
    auto worker = [&](Pe &pe) -> Task {
        for (int i = 0; i < 16; ++i) {
            const Word idx = co_await pe.fetchAdd(ctr, 1);
            co_await pe.store(results + idx, 1);
        }
    };
    machine.launch(0, worker);
    machine.launch(1, worker);
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(ctr), 32);
    // Every index was claimed exactly once.
    for (Addr i = 0; i < 32; ++i)
        EXPECT_EQ(machine.peek(results + i), 1);
}

TEST(PeTest, StatsCountPrivateRefs)
{
    Machine machine(testConfig());
    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.privateRefs(10);
        co_await pe.compute(5);
    });
    ASSERT_TRUE(machine.run());
    const auto &stats = machine.peAt(0).stats();
    EXPECT_EQ(stats.privateRefs, 10u);
    EXPECT_EQ(stats.instructions, 15u);
    EXPECT_EQ(stats.sharedRefs, 0u);
}

} // namespace
} // namespace ultra
