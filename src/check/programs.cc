#include "check/programs.h"

#include <sstream>

#include "common/log.h"

namespace ultra::check
{

bool
CounterSpec::apply(const HistOp &op)
{
    if (op.result != value)
        return false;
    value += op.arg;
    return true;
}

bool
BoundedQueueSpec::apply(const HistOp &op)
{
    if (op.kind == kOpInsert) {
        if (op.result == kQueueFail)
            return items.size() >= capacity;
        if (items.size() >= capacity)
            return false;
        items.push_back(op.arg);
        return true;
    }
    ULTRA_ASSERT(op.kind == kOpDelete);
    if (op.result == kQueueFail)
        return items.empty();
    if (items.empty() || items.front() != op.result)
        return false;
    items.pop_front();
    return true;
}

namespace
{

/** Render a history for violation messages (diagnosis needs it). */
std::string
describeHistory(const std::vector<HistOp> &history)
{
    std::ostringstream os;
    for (const HistOp &op : history) {
        os << " p" << op.proc << ":"
           << (op.kind == kOpInsert ? "ins"
               : op.kind == kOpDelete ? "del"
                                      : "fa")
           << "(" << op.arg << ")->" << op.result << "@[" << op.invokeStep
           << "," << op.responseStep << "]";
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Fetch-and-add (and its broken load/store cousin)
// ---------------------------------------------------------------------

class CounterRun final : public Run
{
  public:
    CounterRun(unsigned procs, bool broken) : Run(procs)
    {
        for (unsigned p = 0; p < procs; ++p) {
            total_ += broken ? 1 : Word{1} << p;
            launch(p, broken ? loadThenStore(p) : fetchAdd(p));
        }
    }

    std::string
    checkOutcome() const override
    {
        if (!linearizable(history, CounterSpec{}))
            return "fetched values match no serial order";
        if (mem[counter_] != total_) {
            std::ostringstream os;
            os << "lost update: final value " << mem[counter_]
               << " != sum of increments " << total_;
            return os.str();
        }
        return {};
    }

  private:
    pe::Task
    fetchAdd(unsigned p)
    {
        const Word old = co_await port(p).fetchAdd(counter_, Word{1} << p);
        record(p, kOpFetchAdd, Word{1} << p, old);
    }

    pe::Task
    loadThenStore(unsigned p)
    {
        const Word old = co_await port(p).load(counter_); // not combined
        co_await port(p).store(counter_, old + 1);
        record(p, kOpFetchAdd, 1, old);
    }

    Addr counter_ = alloc(1);
    Word total_ = 0;
};

// ---------------------------------------------------------------------
// The appendix's TIR/TDR parallel queue
// ---------------------------------------------------------------------

class QueueRun final : public Run
{
  public:
    QueueRun(const std::string &shape, unsigned capacity)
        : Run(static_cast<unsigned>(shape.size())), cap_(capacity)
    {
        queue_.size = capacity;
        queue_.data = alloc(capacity);
        queue_.insPtr = alloc(1);
        queue_.delPtr = alloc(1);
        queue_.lower = alloc(1);
        queue_.upper = alloc(1);
        queue_.insSeq = alloc(capacity);
        queue_.delSeq = alloc(capacity);
        for (unsigned p = 0; p < numProcs(); ++p)
            launch(p, shape[p] == 'i' ? inserter(p) : deleter(p));
    }

    std::string
    checkOutcome() const override
    {
        // Conservation: with no operation in flight the bounds agree
        // and equal the net number of successful inserts.
        std::int64_t net = 0;
        for (const HistOp &op : history) {
            if (op.kind == kOpInsert && op.result != kQueueFail)
                ++net;
            if (op.kind == kOpDelete && op.result != kQueueFail)
                --net;
        }
        if (mem[queue_.upper] != net || mem[queue_.lower] != net)
            return "occupancy bounds disagree with completed ops";

        // Successful operations must linearize to a serial bounded
        // FIFO.  Failed (full/empty) returns are deliberately held to
        // the weaker bound-consistency the appendix guarantees: #Qu
        // counts an insert from its first action, #Qi only from its
        // completion, so a half-visible insert can look "full" to an
        // inserter and "empty" to a deleter at the same moment -- a
        // real, observable behavior of the algorithm, and NOT
        // linearizable against the FIFO spec (verified by the strict
        // judge in tests/serial_test.cc).
        std::vector<HistOp> successes;
        for (const HistOp &op : history) {
            if (op.result == kQueueFail) {
                if (std::string err = justifyFailure(op); !err.empty())
                    return err;
            } else {
                successes.push_back(op);
            }
        }
        if (!linearizable(successes, BoundedQueueSpec{{}, cap_}))
            return "successful ops match no serial FIFO order:" +
                   describeHistory(history);
        return {};
    }

  private:
    pe::Task
    inserter(unsigned p)
    {
        const Word value = 100 + static_cast<Word>(p);
        bool overflow = false;
        co_await core::queueInsert(port(p), queue_, value, &overflow);
        record(p, kOpInsert, value, overflow ? kQueueFail : 0);
    }

    pe::Task
    deleter(unsigned p)
    {
        Word value = 0;
        bool underflow = false;
        co_await core::queueDelete(port(p), queue_, &value, &underflow);
        record(p, kOpDelete, 0, underflow ? kQueueFail : value);
    }

    /**
     * A failed return must be justified by the bound variable it
     * tested.  The justification is a permissive estimate of that
     * bound's extreme value during the op's interval: an operation
     * counts toward #Qu from invocation and toward #Qi from response,
     * and a failed op's transient increment/decrement window counts
     * whenever it can overlap @p f.  A "full" with no conceivable
     * occupancy, or an "empty" with completed un-deleted items and no
     * concurrent deleters, is a violation.
     */
    std::string
    justifyFailure(const HistOp &f) const
    {
        std::int64_t bound = 0;
        if (f.kind == kOpInsert) {
            for (const HistOp &op : history) {
                if (&op == &f)
                    continue;
                if (op.kind == kOpInsert && op.result != kQueueFail &&
                    op.invokeStep < f.responseStep) {
                    ++bound; // counted in #Qu from its first action
                }
                if (op.kind == kOpInsert && op.result == kQueueFail &&
                    op.invokeStep < f.responseStep &&
                    op.responseStep > f.invokeStep) {
                    ++bound; // TIR window (increment..undo) overlaps f
                }
                if (op.kind == kOpDelete && op.result != kQueueFail &&
                    op.responseStep < f.invokeStep) {
                    --bound; // certainly decremented #Qu before f began
                }
            }
            if (bound < static_cast<std::int64_t>(cap_)) {
                return "insert reported full with no justifying "
                       "occupancy:" +
                       describeHistory(history);
            }
            return {};
        }
        ULTRA_ASSERT(f.kind == kOpDelete);
        for (const HistOp &op : history) {
            if (&op == &f)
                continue;
            if (op.kind == kOpInsert && op.result != kQueueFail &&
                op.responseStep < f.invokeStep) {
                ++bound; // certainly published in #Qi before f began
            }
            if (op.kind == kOpDelete && op.result != kQueueFail &&
                op.invokeStep < f.responseStep) {
                --bound; // may have decremented #Qi before f tested
            }
            if (op.kind == kOpDelete && op.result == kQueueFail &&
                op.invokeStep < f.responseStep &&
                op.responseStep > f.invokeStep) {
                --bound; // TDR window (decrement..undo) overlaps f
            }
        }
        if (bound > 0) {
            return "delete reported empty with completed items "
                   "present:" +
                   describeHistory(history);
        }
        return {};
    }

    core::ParallelQueue queue_;
    unsigned cap_;
};

// ---------------------------------------------------------------------
// Readers-writers (section 2.3)
// ---------------------------------------------------------------------

class RwRun final : public Run
{
  public:
    RwRun(const std::string &shape, ReaderLockFn reader_lock)
        : Run(static_cast<unsigned>(shape.size())), shape_(shape),
          holding_(shape.size(), 0)
    {
        lock_.readers = alloc(1);
        lock_.writer = alloc(1);
        lock_.wticket = alloc(1);
        lock_.wserving = alloc(1);
        for (unsigned p = 0; p < numProcs(); ++p)
            launch(p, shape[p] == 'r' ? reader(p, reader_lock) : writer(p));
    }

    std::string
    checkState() const override
    {
        unsigned readers_in_cs = 0;
        unsigned writers_in_cs = 0;
        for (unsigned p = 0; p < numProcs(); ++p) {
            if (inCs(p))
                ++(shape_[p] == 'r' ? readers_in_cs : writers_in_cs);
        }
        if (writers_in_cs > 1)
            return "two writers in the critical section";
        if (writers_in_cs >= 1 && readers_in_cs >= 1)
            return "reader and writer in the critical section";
        return {};
    }

    std::string
    checkOutcome() const override
    {
        if (mem[lock_.readers] != 0 || mem[lock_.writer] != 0 ||
            mem[lock_.wticket] != mem[lock_.wserving]) {
            return "lock state not fully released";
        }
        return {};
    }

  private:
    pe::Task
    reader(unsigned p, ReaderLockFn reader_lock)
    {
        co_await reader_lock(port(p), lock_);
        enterCs(p);
        co_await core::readerUnlock(port(p), lock_);
    }

    pe::Task
    writer(unsigned p)
    {
        co_await core::writerLock(port(p), lock_);
        enterCs(p);
        co_await core::writerUnlock(port(p), lock_);
    }

    /** @p p occupies the CS until its unlock's first action runs. */
    void
    enterCs(unsigned p)
    {
        holding_[p] = 1;
        port(p).beginOp();
    }

    bool
    inCs(unsigned p) const
    {
        return holding_[p] && port(p).invokeStep() == 0;
    }

    std::string shape_;
    std::vector<char> holding_; //!< lock returned (unlock may have begun)
    core::RwLock lock_;
};

// ---------------------------------------------------------------------
// Sense-reversing fetch-and-add barrier
// ---------------------------------------------------------------------

class BarrierRun final : public Run
{
  public:
    BarrierRun(unsigned procs, unsigned episodes)
        : Run(procs), episodes_(episodes), passed_(procs, 0)
    {
        barrier_.parties = procs;
        barrier_.count = alloc(1);
        barrier_.sense = alloc(1);
        for (unsigned p = 0; p < procs; ++p)
            launch(p, cross(p));
    }

    std::string
    checkState() const override
    {
        // No process may complete episode e before all P processes
        // arrived e+1 times: the reuse property sense reversal buys.
        const std::int64_t arrived = arrivals();
        for (unsigned p = 0; p < numProcs(); ++p) {
            if (arrived < passed_[p] * static_cast<std::int64_t>(numProcs())) {
                std::ostringstream os;
                os << "proc " << p << " left episode " << passed_[p]
                   << " after only " << arrived << " arrivals";
                return os.str();
            }
        }
        return {};
    }

    std::string
    checkOutcome() const override
    {
        if (mem[barrier_.count] != 0)
            return "count not reset after final episode";
        return {};
    }

  private:
    pe::Task
    cross(unsigned p)
    {
        Word sense = 0;
        for (unsigned e = 0; e < episodes_; ++e) {
            port(p).beginOp();
            co_await core::barrierWait(port(p), barrier_, &sense);
            ++passed_[p];
        }
    }

    /** Episodes passed, plus each current episode whose arrival (the
     *  barrier's first action, its fetch-and-add) has run. */
    std::int64_t
    arrivals() const
    {
        std::int64_t total = 0;
        for (unsigned p = 0; p < numProcs(); ++p) {
            total += passed_[p];
            if (passed_[p] < static_cast<std::int64_t>(episodes_) &&
                port(p).invokeStep() != 0)
                ++total;
        }
        return total;
    }

    unsigned episodes_;
    std::vector<std::int64_t> passed_; //!< episodes each process left
    core::Barrier barrier_;
};

void
checkShape(const std::string &shape, char a, char b)
{
    for (char c : shape)
        ULTRA_ASSERT(c == a || c == b, "bad shape character");
}

} // namespace

Program
makeFetchAdd(unsigned procs)
{
    return {"fetch_and_add",
            [procs] { return std::make_unique<CounterRun>(procs, false); }};
}

Program
makeBrokenCounter(unsigned procs)
{
    return {"broken_counter",
            [procs] { return std::make_unique<CounterRun>(procs, true); }};
}

Program
makeParallelQueue(const std::string &shape, unsigned capacity)
{
    ULTRA_ASSERT(capacity >= 1);
    checkShape(shape, 'i', 'd');
    std::ostringstream os;
    os << "parallel_queue[" << shape << ",cap=" << capacity << "]";
    return {os.str(), [shape, capacity] {
                return std::make_unique<QueueRun>(shape, capacity);
            }};
}

Program
makeReadersWriters(const std::string &shape, ReaderLockFn reader_lock)
{
    checkShape(shape, 'r', 'w');
    return {"readers_writers[" + shape + "]", [shape, reader_lock] {
                return std::make_unique<RwRun>(shape, reader_lock);
            }};
}

Program
makeBarrier(unsigned procs, unsigned episodes)
{
    ULTRA_ASSERT(procs >= 1 && episodes >= 1);
    std::ostringstream os;
    os << "barrier[p=" << procs << ",episodes=" << episodes << "]";
    return {os.str(), [procs, episodes] {
                return std::make_unique<BarrierRun>(procs, episodes);
            }};
}

} // namespace ultra::check
