/**
 * @file
 * The programs the serialization-principle verifier runs (see
 * serial.h): driver coroutines that call the simulator's own
 * core::coord algorithms on check::Port, plus the sequential
 * specifications their histories are judged against.
 *
 * The drivers keep *ghost* state -- operation histories, critical-
 * section occupancy, barrier passes -- that the verifier reads but the
 * algorithm does not.
 *
 * makeBrokenCounter exists to prove the verifier has teeth: a
 * load-then-store increment is NOT serializable, and the explorer must
 * find the interleaving that loses an update.
 */

#ifndef ULTRA_CHECK_PROGRAMS_H
#define ULTRA_CHECK_PROGRAMS_H

#include <cstdint>
#include <deque>
#include <string>

#include "check/serial.h"
#include "core/coord.h"

namespace ultra::check
{

/** History op codes shared by the programs. */
enum OpKind : int {
    kOpFetchAdd = 0, //!< arg = increment, result = value fetched
    kOpInsert = 1,   //!< arg = value; result 0 = ok, -1 = full
    kOpDelete = 2,   //!< result = value taken, or -1 = empty
};

/** Result sentinel for a failed (full/empty) queue operation. */
inline constexpr std::int64_t kQueueFail = -1;

/** Sequential counter: the serialization principle for fetch-and-add. */
struct CounterSpec
{
    std::int64_t value = 0;

    bool apply(const HistOp &op);
};

/** Sequential bounded FIFO queue, full/empty returns included. */
struct BoundedQueueSpec
{
    std::deque<std::int64_t> items;
    std::size_t capacity = 0;

    bool apply(const HistOp &op);
};

/**
 * P processes each perform one indivisible FA(V, 1 << p); the outcome
 * must linearize against a sequential counter (every fetched value is
 * the sum of the increments serialized before it) and the final cell
 * must hold the total.  This is the serialization principle for
 * fetch-and-add verbatim.
 */
Program makeFetchAdd(unsigned procs);

/**
 * P processes each increment a counter as a separate load then store
 * -- the classic non-serializable "critical section bug".  The
 * verifier must report a violation (used by tests to prove detection;
 * ultracheck runs it only under --demo-bug).
 */
Program makeBrokenCounter(unsigned procs);

/**
 * The appendix's critical-section-free parallel queue
 * (core::queueInsert / core::queueDelete).  Each process performs one
 * insert (value 100 + p) or one delete per the shape string.
 * Successful operations must linearize against a sequential bounded
 * FIFO queue; failed (full/empty) returns are held to the
 * bound-consistency the appendix actually guarantees -- #Qu counts an
 * insert from its first action and #Qi only from its completion, so a
 * half-visible insert may look "full" to an inserter and "empty" to a
 * deleter at the same moment.  That conservative behavior is real (not
 * linearizable; see the strict-judge test in tests/serial_test.cc), so
 * each failure is instead checked to be justified by operations that
 * can have filled (or drained) its bound during the op's interval.
 *
 * @param shape     one char per process: 'i' = inserter, 'd' = deleter
 * @param capacity  queue cells (small: 1 or 2 keeps full/empty paths hot)
 */
Program makeParallelQueue(const std::string &shape, unsigned capacity);

/** A reader-entry algorithm on the check port. */
using ReaderLockFn = pe::Task (*)(Port &, core::RwLock);

/**
 * The completely-parallel readers-writers solution (core::readerLock
 * and friends).  Each process is a reader or writer per the shape
 * string ('r' / 'w'), entering its critical section once.  A process
 * occupies the critical section from the step its lock returns until
 * its unlock's first action.  The verified property is the
 * serialization requirement itself: no state may hold a writer in the
 * CS together with any other CS occupant.  @p reader_lock replaces the
 * reader entry (tests pass a broken one to prove detection).
 */
Program makeReadersWriters(
    const std::string &shape,
    ReaderLockFn reader_lock = &core::readerLock<Port>);

/**
 * The sense-reversing fetch-and-add barrier (core::barrierWait),
 * crossed @p episodes times by each of @p procs processes.  Ghost
 * arrival counts verify no process leaves episode e before all P
 * processes arrived e+1 times (the reuse property the sense reversal
 * exists for).
 */
Program makeBarrier(unsigned procs, unsigned episodes);

} // namespace ultra::check

#endif // ULTRA_CHECK_PROGRAMS_H
