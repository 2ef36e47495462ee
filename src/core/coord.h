/**
 * @file
 * Critical-section-free coordination on the simulated machine
 * (section 2.3 and the appendix).
 *
 * All primitives are built solely from fetch-and-add (plus its load /
 * store / test-and-set special cases) and contain no code that could
 * create a serial bottleneck when the structures are neither empty nor
 * full -- "the concurrent execution of thousands of inserts and
 * thousands of deletes can all be accomplished in the time required for
 * just one such operation".
 *
 * ParallelQueue is the appendix algorithm: a circular array Q[0:Size-1]
 * with insert pointer I, delete pointer D, and lower/upper occupancy
 * bounds #Qi / #Qu guarded by the test-increment-retest (TIR) and
 * test-decrement-retest (TDR) sequences.  "Wait turn at MyI" is
 * realized with per-cell round counters so overlapping wrap-arounds
 * stay FIFO.
 *
 * Every algorithm is a coroutine template over its PE port `P`: any
 * type whose `load(addr)`, `store(addr, value)` and
 * `fetchAdd(addr, delta)` return awaitables yielding a Word, and whose
 * `compute(n)` returns an awaitable.  The simulator instantiates them
 * on pe::Pe; the serialization-principle explorer (check/serial.h)
 * instantiates the same bodies on its check::Port, so what it verifies
 * is the code the applications run.  Only the `create` allocators need
 * the machine.
 */

#ifndef ULTRA_CORE_COORD_H
#define ULTRA_CORE_COORD_H

#include <cstdint>

#include "common/types.h"
#include "pe/task.h"

namespace ultra::core
{

class Machine;

/** Cycles of local work between polls of a shared flag. */
inline constexpr std::uint64_t kPollBackoffInstr = 4;

/** Shared-memory layout of one appendix-style parallel queue. */
struct ParallelQueue
{
    Word size = 0;   //!< capacity in items
    Addr data = 0;   //!< Q[0 : size-1]
    Addr insPtr = 0; //!< I: items ever inserted (mod size gives the cell)
    Addr delPtr = 0; //!< D: items ever deleted
    Addr lower = 0;  //!< #Qi: lower bound on occupancy
    Addr upper = 0;  //!< #Qu: upper bound on occupancy
    Addr insSeq = 0; //!< per-cell rounds completed by inserters
    Addr delSeq = 0; //!< per-cell rounds completed by deleters

    /** Allocate and zero-initialize a queue of @p size items. */
    static ParallelQueue create(Machine &machine, Word size);
};

/**
 * Test-increment-retest (appendix): atomically claim one unit of S
 * subject to S + delta <= bound; undoes the claim on overshoot.  The
 * initial test looks redundant but prevents unacceptable race
 * conditions (unbounded drift of S under contention).
 */
template <typename P>
pe::Task
tirTask(P &pe, Addr s, Word delta, Word bound, bool *ok_out)
{
    // Initial test: without it, failed attempts under heavy contention
    // would let S drift arbitrarily far past the bound (the "race
    // conditions" remark in the appendix).
    const Word current = co_await pe.load(s);
    if (current + delta > bound) {
        *ok_out = false;
        co_return;
    }
    const Word old_value = co_await pe.fetchAdd(s, delta);
    if (old_value + delta <= bound) {
        *ok_out = true;
        co_return;
    }
    const Word undone = co_await pe.fetchAdd(s, -delta);
    (void)undone;
    *ok_out = false;
}

/** Test-decrement-retest: claim subject to S - delta >= 0. */
template <typename P>
pe::Task
tdrTask(P &pe, Addr s, Word delta, bool *ok_out)
{
    const Word current = co_await pe.load(s);
    if (current - delta < 0) {
        *ok_out = false;
        co_return;
    }
    const Word old_value = co_await pe.fetchAdd(s, -delta);
    if (old_value - delta >= 0) {
        *ok_out = true;
        co_return;
    }
    const Word undone = co_await pe.fetchAdd(s, delta);
    (void)undone;
    *ok_out = false;
}

/**
 * Appendix Insert: on success *overflow_out = false and @p value is
 * enqueued; a full queue sets *overflow_out = true.
 */
template <typename P>
pe::Task
queueInsert(P &pe, ParallelQueue queue, Word value, bool *overflow_out)
{
    bool claimed = false;
    co_await tirTask(pe, queue.upper, 1, queue.size, &claimed);
    if (!claimed) {
        *overflow_out = true;
        co_return;
    }
    const Word my = co_await pe.fetchAdd(queue.insPtr, 1);
    const Word cell = my % queue.size;
    const Word round = my / queue.size;
    // Wait turn at MyI: cell must have been emptied `round` times.
    // (Awaits are hoisted out of loop conditions throughout this file;
    // see the GCC note in pe/task.h.)
    while (true) {
        const Word emptied = co_await pe.load(queue.delSeq + cell);
        if (emptied >= round)
            break;
        co_await pe.compute(kPollBackoffInstr);
    }
    co_await pe.store(queue.data + cell, value);
    co_await pe.store(queue.insSeq + cell, round + 1);
    const Word was = co_await pe.fetchAdd(queue.lower, 1);
    (void)was;
    *overflow_out = false;
}

/**
 * Appendix Delete: on success *underflow_out = false and *value_out
 * receives the item; an empty queue sets *underflow_out = true.
 */
template <typename P>
pe::Task
queueDelete(P &pe, ParallelQueue queue, Word *value_out,
            bool *underflow_out)
{
    bool claimed = false;
    co_await tdrTask(pe, queue.lower, 1, &claimed);
    if (!claimed) {
        *underflow_out = true;
        co_return;
    }
    const Word my = co_await pe.fetchAdd(queue.delPtr, 1);
    const Word cell = my % queue.size;
    const Word round = my / queue.size;
    // Wait turn at MyD: the round's insertion must have completed.
    while (true) {
        const Word filled = co_await pe.load(queue.insSeq + cell);
        if (filled >= round + 1)
            break;
        co_await pe.compute(kPollBackoffInstr);
    }
    *value_out = co_await pe.load(queue.data + cell);
    co_await pe.store(queue.delSeq + cell, round + 1);
    const Word was = co_await pe.fetchAdd(queue.upper, -1);
    (void)was;
    *underflow_out = false;
}

/** Shared state of the fetch-and-add barrier. */
struct Barrier
{
    Word parties = 0; //!< PEs that must arrive
    Addr count = 0;   //!< arrivals this episode
    Addr sense = 0;   //!< episode parity

    static Barrier create(Machine &machine, Word parties);
};

/**
 * Sense-reversing barrier.  @p local_sense is the PE-private phase flag
 * (a coroutine-frame variable): initialize to 0 and reuse the same
 * variable for every episode on that PE.
 */
template <typename P>
pe::Task
barrierWait(P &pe, Barrier barrier, Word *local_sense)
{
    const Word my_sense = 1 - *local_sense;
    const Word arrived = co_await pe.fetchAdd(barrier.count, 1);
    if (arrived == barrier.parties - 1) {
        // Last arrival: reset and release the episode.
        co_await pe.store(barrier.count, 0);
        co_await pe.store(barrier.sense, my_sense);
    } else {
        while (true) {
            const Word sense = co_await pe.load(barrier.sense);
            if (sense == my_sense)
                break;
            co_await pe.compute(kPollBackoffInstr);
        }
    }
    *local_sense = my_sense;
}

/** Shared state of the completely-parallel readers-writers lock. */
struct RwLock
{
    Addr readers = 0; //!< active readers
    Addr writer = 0;  //!< a writer holds or awaits the lock
    Addr wticket = 0; //!< writers' ticket dispenser
    Addr wserving = 0; //!< writers' now-serving counter

    static RwLock create(Machine &machine);
};

/**
 * Reader entry: during periods with no writers active no serial code is
 * executed (readers only fetch-and-add shared counters).
 */
template <typename P>
pe::Task
readerLock(P &pe, RwLock lock)
{
    while (true) {
        const Word was = co_await pe.fetchAdd(lock.readers, 1);
        (void)was;
        const Word writer_active = co_await pe.load(lock.writer);
        if (writer_active == 0)
            co_return; // no writer: fully parallel entry
        const Word undo = co_await pe.fetchAdd(lock.readers, -1);
        (void)undo;
        while (true) {
            const Word writer_now = co_await pe.load(lock.writer);
            if (writer_now == 0)
                break;
            co_await pe.compute(kPollBackoffInstr);
        }
    }
}

template <typename P>
pe::Task
readerUnlock(P &pe, RwLock lock)
{
    const Word was = co_await pe.fetchAdd(lock.readers, -1);
    (void)was;
}

/**
 * Writer entry: writers are inherently serial (the problem demands it);
 * they take FIFO tickets among themselves and then drain the readers.
 */
template <typename P>
pe::Task
writerLock(P &pe, RwLock lock)
{
    // Writers are inherently serial: FIFO tickets among themselves.
    const Word ticket = co_await pe.fetchAdd(lock.wticket, 1);
    while (true) {
        const Word serving = co_await pe.load(lock.wserving);
        if (serving == ticket)
            break;
        co_await pe.compute(kPollBackoffInstr);
    }
    co_await pe.store(lock.writer, 1);
    // Drain readers that entered before the flag went up.
    while (true) {
        const Word readers_now = co_await pe.load(lock.readers);
        if (readers_now == 0)
            break;
        co_await pe.compute(kPollBackoffInstr);
    }
}

template <typename P>
pe::Task
writerUnlock(P &pe, RwLock lock)
{
    co_await pe.store(lock.writer, 0);
    const Word was = co_await pe.fetchAdd(lock.wserving, 1);
    (void)was;
}

} // namespace ultra::core

#endif // ULTRA_CORE_COORD_H
