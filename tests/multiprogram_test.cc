/**
 * @file
 * Tests of hardware multiprogramming (section 3.5) and the cached PE
 * memory operations (sections 3.2, 3.4): contexts share the pipeline,
 * waiting time is recovered, k-fold multiprogramming behaves like k
 * PEs of relative performance 1/k, and cached loads/stores hit, miss,
 * write back, flush and release correctly against central memory,
 * and every PE's wake cycle agrees with its runnable() test.
 */

#include <gtest/gtest.h>

#include "apps/tred2.h"
#include "core/coord.h"
#include "core/machine.h"

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

// ----------------------------------------------------- multiprogramming

TEST(MultiprogramTest, TwoContextsBothComplete)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(2);
    machine.launch(0, [&](Pe &pe) -> Task {
        for (int i = 0; i < 10; ++i) {
            const Word was = co_await pe.fetchAdd(a, 1);
            (void)was;
        }
    });
    machine.launchExtra(0, [&](Pe &pe) -> Task {
        for (int i = 0; i < 10; ++i) {
            const Word was = co_await pe.fetchAdd(a + 1, 1);
            (void)was;
        }
    });
    EXPECT_EQ(machine.peAt(0).numContexts(), 2u);
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(a), 10);
    EXPECT_EQ(machine.peek(a + 1), 10);
}

TEST(MultiprogramTest, SecondContextRecoversWaitingTime)
{
    // A memory-bound program leaves the pipeline idle while blocked;
    // adding a second context overlaps that idle time, so two
    // multiprogrammed copies finish much sooner than two sequential
    // runs (and not much later than one).
    auto run_with_contexts = [](int contexts) {
        Machine machine(testConfig());
        const Addr region = machine.allocShared(1024);
        auto body = [&, region](Pe &pe) -> Task {
            // Serialized blocking loads: almost pure waiting.
            for (int i = 0; i < 50; ++i) {
                const Word v =
                    co_await pe.load(region + (i * 17) % 512);
                (void)v;
                co_await pe.compute(1);
            }
        };
        machine.launch(0, body);
        for (int c = 1; c < contexts; ++c)
            machine.launchExtra(0, body);
        EXPECT_TRUE(machine.run());
        return machine.now();
    };
    const Cycle one = run_with_contexts(1);
    const Cycle two = run_with_contexts(2);
    // Two contexts do twice the work; with recovery the time is far
    // below 2x (the paper's premise for Table 3).
    EXPECT_LT(two, one * 3 / 2);
    EXPECT_GE(two, one);
}

TEST(MultiprogramTest, ComputeBoundContextsSerialize)
{
    // Pure compute cannot be overlapped: the pipeline is the resource.
    // k-fold multiprogramming of compute-bound work takes ~k times as
    // long ("each having relative performance 1/k").
    auto run_with_contexts = [](int contexts) {
        Machine machine(testConfig());
        auto body = [](Pe &pe) -> Task { co_await pe.compute(500); };
        machine.launch(0, body);
        for (int c = 1; c < contexts; ++c)
            machine.launchExtra(0, body);
        EXPECT_TRUE(machine.run());
        return machine.now();
    };
    const Cycle one = run_with_contexts(1);
    const Cycle three = run_with_contexts(3);
    EXPECT_GE(three, one * 5 / 2);
}

TEST(MultiprogramTest, ContextsShareCoordination)
{
    // Contexts on different PEs and on the same PE all meet at one
    // barrier; nothing deadlocks even though co-resident contexts
    // cannot execute simultaneously.
    Machine machine(testConfig());
    auto barrier = core::Barrier::create(machine, 8);
    const Addr counter = machine.allocShared(1);
    auto body = [&, barrier](Pe &pe) -> Task {
        Word sense = 0;
        for (int phase = 0; phase < 3; ++phase) {
            const Word was = co_await pe.fetchAdd(counter, 1);
            (void)was;
            co_await core::barrierWait(pe, barrier, &sense);
        }
    };
    for (PEId p = 0; p < 4; ++p) {
        machine.launch(p, body);
        machine.launchExtra(p, body);
    }
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(counter), 8 * 3);
}

TEST(MultiprogramTest, RelaunchClearsContexts)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(1);
    machine.launch(0, [&](Pe &pe) -> Task {
        const Word was = co_await pe.fetchAdd(a, 1);
        (void)was;
    });
    machine.launchExtra(0, [&](Pe &pe) -> Task {
        const Word was = co_await pe.fetchAdd(a, 1);
        (void)was;
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peAt(0).numContexts(), 2u);
    machine.launch(0, [&](Pe &pe) -> Task {
        const Word was = co_await pe.fetchAdd(a, 10);
        (void)was;
    });
    EXPECT_EQ(machine.peAt(0).numContexts(), 1u);
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(a), 12);
}

TEST(MultiprogramTest, FencesAreIsolatedPerContext)
{
    // Context A posts async stores and fences; context B's fence must
    // not wait for A's stores (per-context pending-request accounting).
    Machine machine(testConfig());
    const Addr a = machine.allocShared(64);
    bool b_fenced_early = false;
    machine.launch(0, [&](Pe &pe) -> Task {
        for (Addr i = 0; i < 16; ++i)
            pe.postStore(a + i, 1);
        co_await pe.compute(200); // hold the stores in flight a while
        co_await pe.fence();
    });
    machine.launchExtra(0, [&](Pe &pe) -> Task {
        co_await pe.fence(); // nothing of B's outstanding: immediate
        b_fenced_early = true;
        co_await pe.compute(1);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_TRUE(b_fenced_early);
}

TEST(MultiprogramTest, WakeCycleMatchesRunnableAtEveryBoundary)
{
    // Machine::run steps a PE only in the cycles its wake cycle says
    // it can run.  Check Pe::wakeAt() against runnable() at every cycle
    // boundary of a multiprogrammed TRED2 (two contexts per PE, with
    // prefetched loads, posted stores and fences), where contexts
    // block, wake and take turns on one pipeline.
    Machine machine(testConfig());
    std::uint64_t checked = 0;
    std::uint64_t waiting = 0; // boundaries with a PE not yet due
    std::uint64_t mismatches = 0;
    machine.setCycleHook([&](Cycle c) {
        for (PEId id = 0; id < machine.numPes(); ++id) {
            const Pe &pe = machine.peAt(id);
            if (!pe.hasTask())
                continue;
            const Cycle wake = pe.wakeAt();
            ++checked;
            waiting += wake > c && wake != kNeverCycle;
            if (pe.runnable(c) != (wake <= c)) {
                if (++mismatches <= 5) {
                    ADD_FAILURE() << "PE " << id << " at cycle " << c
                                  << ": runnable " << pe.runnable(c)
                                  << ", wakeAt " << wake;
                }
            }
        }
    });
    const std::size_t n = 12;
    const auto a = apps::randomSymmetric(n, 3);
    const auto result = apps::tred2Parallel(machine, 16, a, n, 2);
    EXPECT_TRUE(apps::tridiagonalConsistent(a, n, result.tri, 1e-9));
    EXPECT_EQ(machine.peAt(0).numContexts(), 2u);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(checked, 8u * static_cast<std::uint64_t>(result.cycles) / 2);
    EXPECT_GT(waiting, 0u);
}

// --------------------------------------------------------- cached PE ops

TEST(CachedOpsTest, LoadMissFetchesBlockThenHits)
{
    Machine machine(testConfig());
    const Addr arr = machine.allocShared(64);
    for (Addr i = 0; i < 64; ++i)
        machine.poke(arr + i, static_cast<Word>(100 + i));

    cache::CacheConfig ccfg;
    ccfg.numSets = 4;
    ccfg.associativity = 2;
    ccfg.blockWords = 4;
    machine.peAt(0).attachCache(ccfg);

    Word v0 = -1, v1 = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.cachedLoad(arr + 8, &v0);  // miss: fetch block
        co_await pe.cachedLoad(arr + 9, &v1);  // hit: same block
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(v0, 108);
    EXPECT_EQ(v1, 109);
    const auto &cstats = machine.peAt(0).cache().stats();
    EXPECT_EQ(cstats.readMisses, 1u);
    EXPECT_EQ(cstats.readHits, 1u);
    // The block fetch went to central memory (4 words).
    EXPECT_EQ(machine.peAt(0).stats().sharedRefs, 4u);
}

TEST(CachedOpsTest, WriteBackOnlyOnEvictionOrFlush)
{
    Machine machine(testConfig());
    const Addr arr = machine.allocShared(64);
    cache::CacheConfig ccfg;
    ccfg.numSets = 1; // one set: easy to force eviction
    ccfg.associativity = 1;
    ccfg.blockWords = 4;
    machine.peAt(0).attachCache(ccfg);

    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.cachedStore(arr + 1, 77); // miss, fill, dirty
        // Central memory must NOT see the store yet (write-back).
        EXPECT_EQ(machine.peek(arr + 1), 0);
        // Touch a conflicting block: evicts and writes back.
        Word v = -1;
        co_await pe.cachedLoad(arr + 32, &v);
        co_await pe.fence(); // drain the pipelined write-back
        EXPECT_EQ(machine.peek(arr + 1), 77);
    });
    ASSERT_TRUE(machine.run());
}

TEST(CachedOpsTest, FlushMakesMemoryCurrent)
{
    Machine machine(testConfig());
    const Addr arr = machine.allocShared(16);
    cache::CacheConfig ccfg;
    ccfg.numSets = 2;
    ccfg.associativity = 2;
    ccfg.blockWords = 4;
    machine.peAt(0).attachCache(ccfg);

    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.cachedStore(arr + 2, 55);
        EXPECT_EQ(machine.peek(arr + 2), 0);
        co_await pe.cacheFlush(arr, arr + 15);
        EXPECT_EQ(machine.peek(arr + 2), 55);
        // Still cached (flush keeps, clean): next access is a hit.
        Word v = -1;
        co_await pe.cachedLoad(arr + 2, &v);
        EXPECT_EQ(v, 55);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_GE(machine.peAt(0).cache().stats().readHits, 1u);
}

TEST(CachedOpsTest, ReleaseDropsWithoutTraffic)
{
    Machine machine(testConfig());
    const Addr arr = machine.allocShared(16);
    cache::CacheConfig ccfg;
    ccfg.numSets = 2;
    ccfg.associativity = 2;
    ccfg.blockWords = 4;
    machine.peAt(0).attachCache(ccfg);

    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.cachedStore(arr + 1, 99);
        const std::uint64_t refs_before = pe.stats().sharedRefs;
        pe.cacheRelease(arr, arr + 15); // dead private data
        EXPECT_EQ(pe.stats().sharedRefs, refs_before)
            << "release must generate no network traffic";
        co_return;
    });
    ASSERT_TRUE(machine.run());
    // The dropped dirty word never reached memory (by design).
    EXPECT_EQ(machine.peek(arr + 1), 0);
    EXPECT_FALSE(machine.peAt(0).cache().contains(arr + 1));
}

TEST(CachedOpsTest, SharePrivatizeProtocolOnMachine)
{
    // Section 3.4 end to end: task T caches V privately, updates it,
    // flushes + releases before "spawning" a subtask on another PE;
    // the subtask reads the current value from central memory.
    Machine machine(testConfig());
    const Addr v = machine.allocShared(4);
    cache::CacheConfig ccfg;
    machine.peAt(0).attachCache(ccfg);

    Word subtask_saw = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        co_await pe.cachedStore(v, 41);
        co_await pe.cachedStore(v, 42);
        // Before spawning: flush then release, mark shared.
        co_await pe.cacheFlush(v, v + 3);
        pe.cacheRelease(v, v + 3);
        co_return;
    });
    ASSERT_TRUE(machine.run());
    machine.launch(1, [&](Pe &pe) -> Task {
        subtask_saw = co_await pe.load(v); // uncached shared access
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(subtask_saw, 42);
}

TEST(CachedOpsTest, CacheHitCostsOneInstruction)
{
    Machine machine(testConfig());
    const Addr arr = machine.allocShared(16);
    cache::CacheConfig ccfg;
    machine.peAt(0).attachCache(ccfg);
    machine.launch(0, [&](Pe &pe) -> Task {
        Word v = 0;
        co_await pe.cachedLoad(arr, &v); // miss
        const auto before = pe.stats();
        for (int i = 0; i < 10; ++i)
            co_await pe.cachedLoad(arr, &v); // hits
        const auto after = pe.stats();
        EXPECT_EQ(after.privateRefs - before.privateRefs, 10u);
        EXPECT_EQ(after.sharedRefs, before.sharedRefs);
        EXPECT_EQ(after.instructions - before.instructions, 10u);
    });
    ASSERT_TRUE(machine.run());
}

} // namespace
} // namespace ultra
