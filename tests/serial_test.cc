/**
 * @file
 * Tests for the serialization-principle verifier (src/check/serial.h):
 * the linearizability judge, the explorer's reduction and detection
 * power (it must catch the broken load-then-store counter, a reader
 * lock that ignores the writer, and a spin that can never end), and
 * exhaustive verification of the core::coord algorithms at small
 * scale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/programs.h"

namespace ultra::check
{
namespace
{

// ------------------------------------------------------------------
// linearizable(): the judge itself
// ------------------------------------------------------------------

HistOp
histOp(unsigned proc, std::int64_t arg, std::int64_t result,
       std::uint64_t invoke, std::uint64_t response)
{
    HistOp op;
    op.proc = proc;
    op.kind = kOpFetchAdd;
    op.arg = arg;
    op.result = result;
    op.invokeStep = invoke;
    op.responseStep = response;
    return op;
}

TEST(LinearizableTest, ConcurrentOpsMayReorder)
{
    // Two overlapping FAs: results consistent with B-then-A only.
    const std::vector<HistOp> history = {
        histOp(0, 1, 2, 1, 4), // returned 2: serialized after B
        histOp(1, 2, 0, 2, 3), // returned 0: serialized first
    };
    EXPECT_TRUE(linearizable(history, CounterSpec{}));
}

TEST(LinearizableTest, RealTimeOrderIsBinding)
{
    // A responded (step 2) before B was invoked (step 3), so A must
    // serialize first -- but the results claim the opposite order.
    const std::vector<HistOp> history = {
        histOp(0, 1, 2, 1, 2), // A: returned 2 (claims to be second)
        histOp(1, 2, 0, 3, 4), // B: returned 0 (claims to be first)
    };
    EXPECT_FALSE(linearizable(history, CounterSpec{}));
}

TEST(LinearizableTest, ImpossibleResultIsRejected)
{
    const std::vector<HistOp> history = {
        histOp(0, 1, 0, 1, 2),
        histOp(1, 1, 0, 3, 4), // lost update: also returned 0
    };
    EXPECT_FALSE(linearizable(history, CounterSpec{}));
}

TEST(LinearizableTest, EmptyHistoryIsLinearizable)
{
    EXPECT_TRUE(linearizable({}, CounterSpec{}));
}

// ------------------------------------------------------------------
// explore(): detection power and reduction
// ------------------------------------------------------------------

TEST(ExploreTest, FetchAddSerializesAtEveryWidth)
{
    for (unsigned procs = 2; procs <= 4; ++procs) {
        const ExploreResult res = explore(makeFetchAdd(procs));
        EXPECT_TRUE(res.ok()) << "P=" << procs << ": "
                              << (res.violations.empty()
                                      ? "truncated"
                                      : res.violations.front());
        EXPECT_GT(res.schedules, 0u);
    }
}

TEST(ExploreTest, BrokenCounterIsCaught)
{
    // Load-then-store increments are NOT serializable; the explorer
    // must find the lost-update interleaving (this is the test that
    // proves the harness has teeth).
    const ExploreResult res = explore(makeBrokenCounter(2));
    ASSERT_FALSE(res.violations.empty());
    EXPECT_FALSE(res.truncated);
}

TEST(ExploreTest, SleepSetsPruneWithoutChangingTheVerdict)
{
    const Program program = makeParallelQueue("id", 1);
    ExploreOptions with;
    ExploreOptions without;
    without.sleepSets = false;

    const ExploreResult reduced = explore(program, with);
    const ExploreResult full = explore(program, without);

    EXPECT_TRUE(reduced.ok());
    EXPECT_TRUE(full.ok());
    EXPECT_GT(reduced.sleepPruned, 0u);
    EXPECT_LT(reduced.statesExplored, full.statesExplored);
}

TEST(ExploreTest, StateBudgetTruncationIsReported)
{
    ExploreOptions opts;
    opts.maxStates = 10;
    const ExploreResult res = explore(makeFetchAdd(4), opts);
    EXPECT_TRUE(res.truncated);
    EXPECT_FALSE(res.ok());
}

/** True when some violation of @p res mentions @p text. */
bool
reports(const ExploreResult &res, const std::string &text)
{
    return std::any_of(res.violations.begin(), res.violations.end(),
                       [&](const std::string &v) {
                           return v.find(text) != std::string::npos;
                       });
}

/** Reader entry that skips the writer check. */
pe::Task
readerLockWithoutWriterCheck(Port &port, core::RwLock lock)
{
    const Word was = co_await port.fetchAdd(lock.readers, 1);
    (void)was;
}

TEST(ExploreTest, ReaderLockWithoutWriterCheckIsCaught)
{
    const ExploreResult res = explore(
        makeReadersWriters("rw", &readerLockWithoutWriterCheck));
    EXPECT_TRUE(reports(res, "reader and writer in the critical section"));
}

/** Polls cell 0 until it is nonzero. */
pe::Task
spinWhileZero(Port &port)
{
    while (true) {
        const Word v = co_await port.load(0);
        if (v != 0)
            break;
        co_await port.compute(4);
    }
}

TEST(ExploreTest, SpinOnAnUnwrittenCellIsADeadlock)
{
    // Nobody writes cell 0, so both spins are disabled after their
    // first poll: a deadlock, not a truncation at the depth cap.
    const Program spinners{"spinners", [] {
                               auto run = std::make_unique<check::Run>(2);
                               run->alloc(1);
                               for (unsigned p = 0; p < 2; ++p)
                                   run->launch(p,
                                               spinWhileZero(run->port(p)));
                               return run;
                           }};
    const ExploreResult res = explore(spinners);
    EXPECT_FALSE(res.truncated);
    EXPECT_TRUE(reports(res, "deadlock"));

    const ExploreResult walk = randomWalks(spinners, 5, 1);
    EXPECT_FALSE(walk.truncated);
    EXPECT_TRUE(reports(walk, "deadlock"));
}

// ------------------------------------------------------------------
// The core::coord algorithms (exhaustive at small P; ultracheck goes
// bigger -- these keep ctest fast)
// ------------------------------------------------------------------

TEST(ModelTest, ParallelQueueSerializesAtP2)
{
    for (const char *shape : {"ii", "id", "dd"}) {
        for (unsigned capacity : {1u, 2u}) {
            const ExploreResult res =
                explore(makeParallelQueue(shape, capacity));
            EXPECT_TRUE(res.ok())
                << shape << " cap=" << capacity << ": "
                << (res.violations.empty() ? "truncated"
                                           : res.violations.front());
        }
    }
}

TEST(ModelTest, ParallelQueueSerializesAtP3Capacity1)
{
    // Three processes against one cell: the TIR/TDR full/empty paths
    // and the round counters all get exercised.
    const ExploreResult res = explore(makeParallelQueue("iid", 1));
    EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                  ? "truncated"
                                  : res.violations.front());
}

/** coord's queue, shape iid at capacity 1, judged strictly: every op,
 *  failures included, against the serial bounded FIFO (the judge the
 *  queue program does not use). */
class StrictQueueRun final : public Run
{
  public:
    StrictQueueRun() : Run(3)
    {
        queue_.size = 1;
        queue_.data = alloc(1);
        queue_.insPtr = alloc(1);
        queue_.delPtr = alloc(1);
        queue_.lower = alloc(1);
        queue_.upper = alloc(1);
        queue_.insSeq = alloc(1);
        queue_.delSeq = alloc(1);
        for (unsigned p = 0; p < numProcs(); ++p)
            launch(p, p < 2 ? inserter(p) : deleter(p));
    }

    std::string
    checkOutcome() const override
    {
        return linearizable(history, BoundedQueueSpec{{}, 1})
                   ? std::string()
                   : "no serial FIFO order";
    }

  private:
    pe::Task
    inserter(unsigned p)
    {
        bool overflow = false;
        co_await core::queueInsert(port(p), queue_, 100 + p, &overflow);
        record(p, kOpInsert, 100 + p, overflow ? kQueueFail : 0);
    }

    pe::Task
    deleter(unsigned p)
    {
        Word value = 0;
        bool underflow = false;
        co_await core::queueDelete(port(p), queue_, &value, &underflow);
        record(p, kOpDelete, 0, underflow ? kQueueFail : value);
    }

    core::ParallelQueue queue_;
};

TEST(ModelTest, QueueFailureReturnsAreOnlyBoundConsistent)
{
    // Pinned counterexample, found by the exhaustive search on
    // parallel_queue[iid, cap=1] (steps 1-6 and 9 are p0's seven
    // actions): while p0's insert is in flight it is already counted
    // in #Qu (p1 sees "full") but not yet in #Qi (p2 sees "empty").
    // p1's response precedes p2's invocation, so every serialization
    // must order full-then-empty around one successful insert --
    // impossible for a serial bounded FIFO.  This is the appendix's
    // intended conservative bound semantics, and why the queue program
    // linearizes successful operations only.
    auto queueOp = [](unsigned proc, OpKind kind, std::int64_t arg,
                      std::int64_t result, std::uint64_t invoke,
                      std::uint64_t response) {
        HistOp op;
        op.proc = proc;
        op.kind = kind;
        op.arg = arg;
        op.result = result;
        op.invokeStep = invoke;
        op.responseStep = response;
        return op;
    };
    const std::vector<HistOp> history = {
        queueOp(0, kOpInsert, 100, 0, 1, 9),
        queueOp(1, kOpInsert, 101, kQueueFail, 7, 7),
        queueOp(2, kOpDelete, 0, kQueueFail, 8, 8),
    };
    EXPECT_FALSE(linearizable(history, BoundedQueueSpec{{}, 1}));

    // Dropping the failed returns leaves a trivially serial history.
    const std::vector<HistOp> successes = {history[0]};
    EXPECT_TRUE(linearizable(successes, BoundedQueueSpec{{}, 1}));

    // The search reaches that counterexample on coord's own queue.
    const Program strict{"strict_queue[iid,cap=1]", [] {
                             return std::make_unique<StrictQueueRun>();
                         }};
    EXPECT_TRUE(reports(explore(strict), "no serial FIFO order"));
}

TEST(ModelTest, ReadersWritersExcludeAtP3)
{
    for (const char *shape : {"rw", "ww", "rrw", "rww"}) {
        const ExploreResult res = explore(makeReadersWriters(shape));
        EXPECT_TRUE(res.ok())
            << shape << ": "
            << (res.violations.empty() ? "truncated"
                                       : res.violations.front());
    }
}

TEST(ModelTest, BarrierReusesSafelyAtP3)
{
    const ExploreResult res = explore(makeBarrier(3, 2));
    EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                  ? "truncated"
                                  : res.violations.front());
}

// ------------------------------------------------------------------
// randomWalks(): the sampling fallback
// ------------------------------------------------------------------

TEST(RandomWalkTest, SamplesCompleteSchedules)
{
    const ExploreResult res =
        randomWalks(makeParallelQueue("id", 1), 50, 12345);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_EQ(res.schedules, 50u);
}

TEST(RandomWalkTest, FindsTheBrokenCounterBug)
{
    // 2 procs x 2 steps: a random walk hits the bad interleaving fast.
    const ExploreResult res = randomWalks(makeBrokenCounter(2), 200, 7);
    EXPECT_FALSE(res.violations.empty());
}

} // namespace
} // namespace ultra::check
