/**
 * @file
 * Integration tests of the assembled machine (Figure 1) and the
 * critical-section-free coordination library (section 2.3, appendix):
 * the parallel queue with TIR/TDR, the fetch-and-add barrier, and the
 * readers-writers protocol, all running on the simulated network.
 * Ends with the regression tests for Machine::run() flushing observers
 * on a max_cycles timeout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

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
testConfig(std::uint32_t ports = 16)
{
    return MachineConfig::small(ports, 2);
}

TEST(MachineTest, HashedAddressingIsTransparent)
{
    MachineConfig cfg = testConfig();
    cfg.hashAddresses = true;
    Machine machine(cfg);
    const Addr a = machine.allocShared(16);
    machine.poke(a + 3, 99);
    Word v = -1;
    machine.launch(0, [&](Pe &pe) -> Task {
        v = co_await pe.load(a + 3);
        co_await pe.store(a + 4, 55);
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(v, 99);
    EXPECT_EQ(machine.peek(a + 4), 55);
}

TEST(MachineTest, AllocSharedIsDisjoint)
{
    Machine machine(testConfig());
    const Addr a = machine.allocShared(10, "a");
    const Addr b = machine.allocShared(5, "b");
    EXPECT_GE(b, a + 10);
}

TEST(MachineTest, ConcurrentFetchAddIndexDispensing)
{
    // The section-2.2 example: PEs fetch-and-add a shared array index;
    // each obtains a distinct element and the index gets the total.
    Machine machine(testConfig());
    const Addr index = machine.allocShared(1);
    const Addr owner = machine.allocShared(256);
    const int per_pe = 8;
    for (PEId p = 0; p < 16; ++p) {
        machine.launch(p, [&, p](Pe &pe) -> Task {
            for (int i = 0; i < per_pe; ++i) {
                const Word slot = co_await pe.fetchAdd(index, 1);
                co_await pe.store(owner + slot,
                                  static_cast<Word>(p) + 1);
            }
        });
    }
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(index), 16 * per_pe);
    for (Addr s = 0; s < 16 * per_pe; ++s)
        EXPECT_NE(machine.peek(owner + s), 0) << "slot " << s;
}

TEST(CoordTest, TirClaimsRespectBound)
{
    Machine machine(testConfig());
    const Addr s = machine.allocShared(1);
    const Word bound = 10;
    int successes = 0;
    for (PEId p = 0; p < 16; ++p) {
        machine.launch(p, [&](Pe &pe) -> Task {
            bool ok = false;
            co_await core::tirTask(pe, s, 1, bound, &ok);
            if (ok)
                ++successes;
        });
    }
    ASSERT_TRUE(machine.run());
    // Exactly `bound` of the 16 claims fit, and S ends at the bound.
    EXPECT_EQ(successes, 10);
    EXPECT_EQ(machine.peek(s), bound);
}

TEST(CoordTest, TdrRefusesWhenEmpty)
{
    Machine machine(testConfig());
    const Addr s = machine.allocShared(1);
    machine.poke(s, 3);
    int successes = 0;
    for (PEId p = 0; p < 8; ++p) {
        machine.launch(p, [&](Pe &pe) -> Task {
            bool ok = false;
            co_await core::tdrTask(pe, s, 1, &ok);
            if (ok)
                ++successes;
        });
    }
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(successes, 3);
    EXPECT_EQ(machine.peek(s), 0);
}

TEST(CoordTest, QueueInsertThenDeleteFifo)
{
    Machine machine(testConfig());
    auto queue = core::ParallelQueue::create(machine, 32);
    std::vector<Word> got;
    machine.launch(0, [&](Pe &pe) -> Task {
        bool flag = false;
        for (Word v = 10; v < 15; ++v) {
            co_await core::queueInsert(pe, queue, v, &flag);
            EXPECT_FALSE(flag);
        }
        for (int i = 0; i < 5; ++i) {
            Word v = -1;
            co_await core::queueDelete(pe, queue, &v, &flag);
            EXPECT_FALSE(flag);
            got.push_back(v);
        }
    });
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(got, (std::vector<Word>{10, 11, 12, 13, 14}));
}

TEST(CoordTest, QueueOverflowAndUnderflowFlags)
{
    Machine machine(testConfig());
    auto queue = core::ParallelQueue::create(machine, 2);
    machine.launch(0, [&](Pe &pe) -> Task {
        bool flag = false;
        co_await core::queueInsert(pe, queue, 1, &flag);
        EXPECT_FALSE(flag);
        co_await core::queueInsert(pe, queue, 2, &flag);
        EXPECT_FALSE(flag);
        co_await core::queueInsert(pe, queue, 3, &flag);
        EXPECT_TRUE(flag) << "insert into a full queue must overflow";
        Word v;
        co_await core::queueDelete(pe, queue, &v, &flag);
        EXPECT_FALSE(flag);
        co_await core::queueDelete(pe, queue, &v, &flag);
        EXPECT_FALSE(flag);
        co_await core::queueDelete(pe, queue, &v, &flag);
        EXPECT_TRUE(flag) << "delete from an empty queue must underflow";
    });
    ASSERT_TRUE(machine.run());
}

TEST(CoordTest, ConcurrentQueueConservesItems)
{
    // Thousands of concurrent inserts and deletes with no critical
    // section: every inserted item is deleted exactly once.
    Machine machine(testConfig());
    auto queue = core::ParallelQueue::create(machine, 64);
    const int producers = 8, consumers = 8, per_pe = 12;
    std::vector<Word> consumed;
    for (PEId p = 0; p < producers; ++p) {
        machine.launch(p, [&, p](Pe &pe) -> Task {
            for (int i = 0; i < per_pe; ++i) {
                bool overflow = true;
                const Word item =
                    static_cast<Word>(p) * 1000 + i;
                while (overflow) {
                    co_await core::queueInsert(pe, queue, item,
                                               &overflow);
                }
            }
        });
    }
    for (PEId p = producers; p < producers + consumers; ++p) {
        machine.launch(p, [&](Pe &pe) -> Task {
            for (int i = 0; i < per_pe; ++i) {
                bool underflow = true;
                Word item = -1;
                while (underflow) {
                    co_await core::queueDelete(pe, queue, &item,
                                               &underflow);
                }
                consumed.push_back(item);
            }
        });
    }
    ASSERT_TRUE(machine.run());
    ASSERT_EQ(consumed.size(),
              static_cast<std::size_t>(producers * per_pe));
    std::set<Word> unique(consumed.begin(), consumed.end());
    EXPECT_EQ(unique.size(), consumed.size()) << "item consumed twice";
    // Queue ends empty.
    EXPECT_EQ(machine.peek(queue.upper), 0);
    EXPECT_EQ(machine.peek(queue.lower), 0);
}

TEST(CoordTest, QueueFifoAcrossWraparound)
{
    // The "basic first-in first-out property" with a queue smaller
    // than the item count: one producer, one consumer, strict order.
    Machine machine(testConfig());
    auto queue = core::ParallelQueue::create(machine, 4);
    const int items = 20;
    std::vector<Word> got;
    machine.launch(0, [&](Pe &pe) -> Task {
        for (Word v = 0; v < items; ++v) {
            bool overflow = true;
            while (overflow)
                co_await core::queueInsert(pe, queue, v, &overflow);
        }
    });
    machine.launch(1, [&](Pe &pe) -> Task {
        for (int i = 0; i < items; ++i) {
            bool underflow = true;
            Word v = -1;
            while (underflow)
                co_await core::queueDelete(pe, queue, &v, &underflow);
            got.push_back(v);
        }
    });
    ASSERT_TRUE(machine.run());
    for (int i = 0; i < items; ++i)
        EXPECT_EQ(got[i], i) << "FIFO violated at " << i;
}

TEST(CoordTest, BarrierSynchronizesPhases)
{
    Machine machine(testConfig());
    const std::uint32_t pes = 8;
    auto barrier = core::Barrier::create(machine, pes);
    const Addr phase_count = machine.allocShared(4);
    bool phase_error = false;
    for (PEId p = 0; p < pes; ++p) {
        machine.launch(p, [&, p](Pe &pe) -> Task {
            Word sense = 0;
            for (int phase = 0; phase < 3; ++phase) {
                co_await pe.fetchAdd(phase_count + phase, 1);
                // Uneven work so PEs arrive staggered.
                co_await pe.compute((p + 1) * 7);
                co_await core::barrierWait(pe, barrier, &sense);
                // After the barrier everyone must have checked in.
                const Word arrived =
                    co_await pe.load(phase_count + phase);
                if (arrived != static_cast<Word>(pes))
                    phase_error = true;
            }
        });
    }
    ASSERT_TRUE(machine.run());
    EXPECT_FALSE(phase_error);
}

TEST(CoordTest, ReadersWritersExclusion)
{
    Machine machine(testConfig());
    auto lock = core::RwLock::create(machine);
    const Addr data = machine.allocShared(2); // two cells, kept equal
    bool torn_read = false;
    const int writers = 3, readers = 5, rounds = 6;
    for (PEId p = 0; p < writers; ++p) {
        machine.launch(p, [&, p](Pe &pe) -> Task {
            for (int r = 0; r < rounds; ++r) {
                co_await core::writerLock(pe, lock);
                const Word v = static_cast<Word>(p * 100 + r);
                co_await pe.store(data, v);
                co_await pe.compute(20);
                co_await pe.store(data + 1, v);
                co_await core::writerUnlock(pe, lock);
                co_await pe.compute(10);
            }
        });
    }
    for (PEId p = writers; p < writers + readers; ++p) {
        machine.launch(p, [&](Pe &pe) -> Task {
            for (int r = 0; r < rounds; ++r) {
                co_await core::readerLock(pe, lock);
                const Word a = co_await pe.load(data);
                const Word b = co_await pe.load(data + 1);
                if (a != b)
                    torn_read = true;
                co_await core::readerUnlock(pe, lock);
                co_await pe.compute(5);
            }
        });
    }
    ASSERT_TRUE(machine.run());
    EXPECT_FALSE(torn_read)
        << "a reader observed a half-finished write";
}

TEST(MachineTest, StatsReportSummarizesRun)
{
    Machine machine(testConfig());
    const Addr counter = machine.allocShared(1);
    machine.launchAll(8, [&](Pe &pe) -> Task {
        for (int i = 0; i < 4; ++i) {
            const Word was = co_await pe.fetchAdd(counter, 1);
            (void)was;
            co_await pe.compute(10);
        }
    });
    ASSERT_TRUE(machine.run());
    const std::string report = machine.statsReport();
    EXPECT_NE(report.find("8 PEs engaged"), std::string::npos);
    EXPECT_NE(report.find("instructions"), std::string::npos);
    EXPECT_NE(report.find("round trip mean"), std::string::npos);
    EXPECT_NE(report.find("hottest module"), std::string::npos);
}

TEST(MachineTest, PaperTable1ConfigRuns)
{
    // The full 4096-port machine is constructible and a few PEs can
    // talk across it (only touched switches are simulated).
    core::MachineConfig cfg = core::MachineConfig::paperTable1();
    cfg.wordsPerModule = 64;
    Machine machine(cfg);
    EXPECT_EQ(machine.network().topology().stages(), 6u);
    const Addr ctr = machine.allocShared(1);
    for (PEId p = 0; p < 8; ++p) {
        machine.launch(p, [&](Pe &pe) -> Task {
            co_await pe.fetchAdd(ctr, 1);
        });
    }
    ASSERT_TRUE(machine.run());
    EXPECT_EQ(machine.peek(ctr), 8);
}

// ------------------------------------------------------------------
// Machine::run() max_cycles observer flush (regression)
// ------------------------------------------------------------------

TEST(MachineTimeoutFlushTest, TimeoutStillEmitsFinalSampleRow)
{
    core::MachineConfig cfg = core::MachineConfig::small(16, 2);
    core::Machine machine(cfg);
    machine.enableSampling(1000); // period longer than the whole run
    const Addr cell = machine.allocShared(1);
    machine.launch(0, [cell](pe::Pe &pe) -> pe::Task {
        for (;;) {
            co_await pe.fetchAdd(cell, 1);
            co_await pe.compute(8);
        }
    });
    const bool finished = machine.run(64);
    EXPECT_FALSE(finished);
    // Without the flush no sample period elapsed, so the series would
    // be empty and the truncated run would drop its only window.
    ASSERT_GE(machine.sampler().numRows(), 1u);
    const std::string csv = machine.sampler().csv();
    EXPECT_NE(csv.find("\n" + std::to_string(machine.now()) + ","),
              std::string::npos)
        << "final row must be stamped with the timeout cycle:\n"
        << csv;
}

TEST(MachineTimeoutFlushTest, BlockedWaitTimeIsCreditedAtTimeout)
{
    core::MachineConfig cfg = core::MachineConfig::small(16, 2);
    cfg.net.mmAccessTime = 50; // guarantee the PE is blocked at cutoff
    core::Machine machine(cfg);
    const Addr cell = machine.allocShared(1);
    machine.launch(0, [cell](pe::Pe &pe) -> pe::Task {
        co_await pe.load(cell);
    });
    const bool finished = machine.run(10);
    ASSERT_FALSE(finished);
    const auto timeout_stats = machine.peAt(0).stats();
    EXPECT_GT(timeout_stats.idleCycles, 0u)
        << "waiting accrued before the timeout must be credited";

    // Resuming must not double-count: total idle after completion has
    // to equal the wait actually served, flush or no flush.
    core::Machine reference(cfg);
    const Addr ref_cell = reference.allocShared(1);
    reference.launch(0, [ref_cell](pe::Pe &pe) -> pe::Task {
        co_await pe.load(ref_cell);
    });
    EXPECT_TRUE(reference.run(100'000));
    EXPECT_TRUE(machine.run(100'000));
    EXPECT_EQ(machine.peAt(0).stats().idleCycles,
              reference.peAt(0).stats().idleCycles);
}

} // namespace
} // namespace ultra
