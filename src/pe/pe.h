/**
 * @file
 * The processing-element model (section 3.5).
 *
 * The PE is a register-machine of the CDC-6600 flavour the paper
 * simulated: most instructions are register-to-register, a fraction
 * reference memory.  Private data and program text hit the local cache
 * (section 3.2) and cost one instruction; shared data goes to central
 * memory through the PNI and network.
 *
 * To fully utilize the network a PE continues executing after issuing a
 * fetch: the target register is "locked" until the value returns and an
 * attempt to use it suspends execution.  This is modeled by the
 * LoadHandle: Pe::startOp() issues the request and returns a handle the
 * program co_awaits later; awaiting an unfilled handle blocks the
 * context (and accrues idle cycles), awaiting a filled one is free.
 * Every shared-memory operation takes this one path: a blocking load is
 * a started load whose handle is awaited at once, and the PE keeps one
 * list of its incomplete requests, matched to replies by ticket.
 *
 * Hardware multiprogramming (section 3.5): "if the latency remains an
 * impediment to performance, we would hardware-multiprogram the PEs
 * ... k-fold multiprogramming is equivalent to using k times as many
 * PEs -- each having relative performance 1/k."  A Pe holds one or
 * more *contexts*, each an independent Task; all contexts share the
 * instruction pipeline (only one executes at a time, and its
 * instructions occupy the pipeline for their full duration), but when
 * one context blocks on memory another ready context runs, recovering
 * waiting time.  PeStats::idleCycles counts per-context waiting, so
 * with multiprogramming the PE's *pipeline* idle time is smaller than
 * the contexts' summed waiting time -- exactly the recovery Table 3
 * projects.
 *
 * Simulated-time accounting:
 *   compute(n)       -- n register instructions: n * kInstrTime cycles.
 *   privateRefs(n)   -- n cache-hit data references: same cost, also
 *                       counted as memory references for Table 1.
 *   load/store/...   -- startOp awaited at once: one instruction to
 *                       issue, then the context blocks until the
 *                       reply; blocked time is idle.
 *   startOp + handle -- one instruction to issue, overlap until await.
 */

#ifndef ULTRA_PE_PE_H
#define ULTRA_PE_PE_H

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
#include "net/pni.h"
#include "pe/task.h"

namespace ultra::obs
{
class EventTrace;
} // namespace ultra::obs

namespace ultra::pe
{

using net::Op;

/** Per-PE counters backing Table 1. */
struct PeStats
{
    std::uint64_t instructions = 0; //!< includes memory instructions
    std::uint64_t sharedRefs = 0;   //!< central-memory references
    std::uint64_t sharedLoads = 0;  //!< the subset that are loads
    std::uint64_t privateRefs = 0;  //!< cache-hit data references
    std::uint64_t idleCycles = 0;   //!< per-context waiting on memory
    std::uint64_t busyCycles = 0;   //!< pipeline executing instructions
};

class Pe;

/** A locked-register handle for an in-flight operation. */
class LoadHandle
{
  public:
    LoadHandle() = default;

    bool valid() const { return slot_ != nullptr; }
    bool ready() const;

    /** Awaiting yields the operation's result (see Pe::startOp). */
    auto operator co_await();

  private:
    friend class Pe;
    struct Slot
    {
        std::uint64_t ticket = 0; //!< the PNI request it completes
        std::size_t ctx = 0;      //!< the issuing context
        bool done = false;
        Word value = 0;
    };
    LoadHandle(Pe *owner, std::shared_ptr<Slot> slot)
        : owner_(owner), slot_(std::move(slot))
    {}
    Pe *owner_ = nullptr;
    std::shared_ptr<Slot> slot_;
};

/** One simulated processing element (possibly multiprogrammed). */
class Pe
{
  public:
    Pe(PEId id, net::PniArray &pni, net::Network &network);

    Pe(const Pe &) = delete;
    Pe &operator=(const Pe &) = delete;
    Pe(Pe &&) = delete;

    PEId id() const { return id_; }

    // --- awaitable factories (used inside Task coroutines) -----------

    // Blocking operations: each issues its request through startOp(),
    // so `co_await pe.load(a)` is a started load awaited at once.

    /** Fetch of a shared word. */
    LoadHandle load(Addr vaddr) { return startOp(Op::Load, vaddr); }

    /** Store; awaiting it waits for the acknowledgement. */
    LoadHandle
    store(Addr vaddr, Word value)
    {
        return startOp(Op::Store, vaddr, value);
    }

    /** Fetch-and-add. */
    LoadHandle
    fetchAdd(Addr vaddr, Word delta)
    {
        return startOp(Op::FetchAdd, vaddr, delta);
    }

    /** Swap (fetch-and-pi2). */
    LoadHandle
    swap(Addr vaddr, Word value)
    {
        return startOp(Op::Swap, vaddr, value);
    }

    /** Test-and-set. */
    LoadHandle
    testAndSet(Addr vaddr)
    {
        return startOp(Op::TestAndSet, vaddr);
    }

    /** Generic fetch-and-phi. */
    LoadHandle
    fetchPhi(Op op, Addr vaddr, Word operand)
    {
        return startOp(op, vaddr, operand);
    }

    /** n register-to-register instructions. */
    auto compute(std::uint64_t n) { return ComputeAwait{*this, n, 0}; }

    /** n private (cache-hit) data references. */
    auto privateRefs(std::uint64_t n) { return ComputeAwait{*this, n, n}; }

    /**
     * Issue an operation without blocking (prefetch / pipelined store);
     * costs one instruction.  The returned handle is co_awaited later
     * for the result; fence() awaits all of them.
     */
    LoadHandle startOp(Op op, Addr vaddr, Word data = 0);
    LoadHandle startLoad(Addr vaddr) { return startOp(Op::Load, vaddr); }
    void postStore(Addr vaddr, Word value);

    /** Await completion of every outstanding request issued by the
     *  calling context. */
    auto fence() { return FenceAwait{*this}; }

    // --- cached local memory (sections 3.2, 3.4) ----------------------
    //
    // The local memory implemented as a cache: private variables and
    // read-only shared data may live here; caching read-write shared
    // data violates the serialization principle unless the share /
    // re-privatize protocol of section 3.4 (flush + release) is
    // followed.  Hits cost one instruction; misses fetch the whole
    // block from central memory and pipeline any write-backs.

    /** Give this PE a local cache (call before launching a program). */
    void attachCache(const cache::CacheConfig &cfg);
    cache::Cache &cache();

    /** Read @p vaddr through the cache; *out receives the value. */
    Task cachedLoad(Addr vaddr, Word *out);

    /** Write @p value to @p vaddr through the cache (write-back:
     *  central memory is not updated until eviction or flush). */
    Task cachedStore(Addr vaddr, Word value);

    /** Force write-back of dirty cached words in [lo, hi] ("flush");
     *  the stores are pipelined and fenced. */
    Task cacheFlush(Addr lo, Addr hi);

    /** Drop cached entries in [lo, hi] without write-back ("release"). */
    void cacheRelease(Addr lo, Addr hi);

    // --- machine-facing interface -------------------------------------

    /** Bind the (single) program this PE runs, dropping any others. */
    void setTask(Task task);

    /** Add a further multiprogrammed context (section 3.5). */
    void addTask(Task task);

    bool hasTask() const;
    std::size_t numContexts() const { return contexts_.size(); }

    /** True when every context finished and all requests completed. */
    bool finished() const;

    /** True when some context can execute at @p now. */
    bool runnable(Cycle now) const;

    /**
     * The first cycle at which runnable() can hold with no further
     * completion: the later of the pipeline's free time and the least
     * readyAt of the ready, unfinished contexts; kNeverCycle when no
     * context is ready.  runnable(c) == (wakeAt() <= c) for every c
     * until the next step() or onComplete().
     */
    Cycle wakeAt() const;

    /** Resume one ready context until its next suspension. */
    void step(Cycle now);

    /** PNI completion dispatched by the machine. */
    void onComplete(std::uint64_t ticket, Word value);

    /**
     * Account waiting time accrued up to @p now by still-blocked
     * contexts: credits idleCycles and emits the pending trace "wait"
     * spans, then restarts the wait clocks at @p now.  Called by
     * Machine::run() when a run ends (notably on max_cycles timeout) so
     * stats and traces cover the whole run; totals are unchanged if the
     * run later resumes and the waits complete.
     */
    void flushWaits(Cycle now);

    const PeStats &stats() const { return stats_; }

    /** Add every later per-context memory-wait span, in cycles (the
     *  spans credited to idleCycles), to @p hist; nullptr stops. */
    void setWaitHist(Histogram *hist) { waitHist_ = hist; }

    /** Attach an event trace (nullptr detaches); @p track is the trace
     *  track to emit per-context "wait" spans on (tid = PE id). */
    void
    setEventTrace(obs::EventTrace *trace, std::uint32_t track)
    {
        trace_ = trace;
        traceTrack_ = track;
    }

  private:
    enum class State { Ready, BlockedHandle, BlockedFence };

    friend class LoadHandle;

    /** One hardware context: task, continuation point, block state. */
    struct Context
    {
        Task task;
        /** Innermost suspended frame of the nested task chain. */
        std::coroutine_handle<> current;
        State state = State::Ready;
        Cycle readyAt = 0;
        Cycle blockStart = 0;
        const LoadHandle::Slot *awaitedSlot = nullptr;
        std::uint64_t pending = 0; //!< its incomplete requests
    };

    struct ComputeAwait
    {
        Pe &pe;
        std::uint64_t instructions;
        std::uint64_t private_refs;
        bool await_ready() const { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            pe.runningCtx().current = h;
            pe.chargeCompute(instructions, private_refs);
        }
        void await_resume() const {}
    };

    /** Borrows the slot: a named handle lives in the coroutine frame,
     *  a temporary one to the end of its co_await expression. */
    struct HandleAwait
    {
        Pe &pe;
        const LoadHandle::Slot *slot;
        bool await_ready() const { return slot->done; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            pe.runningCtx().current = h;
            pe.blockOnHandle(slot);
        }
        Word await_resume() const { return slot->value; }
    };

    struct FenceAwait
    {
        Pe &pe;
        bool
        await_ready() const
        {
            return pe.runningCtx().pending == 0;
        }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            pe.runningCtx().current = h;
            pe.blockOnFence();
        }
        void await_resume() const {}
    };

    Context &runningCtx() { return contexts_[running_]; }
    const Context &runningCtx() const { return contexts_[running_]; }

    void chargeCompute(std::uint64_t instructions,
                       std::uint64_t private_refs);
    void blockOnHandle(const LoadHandle::Slot *slot);
    void blockOnFence();
    void unblock(Context &ctx, Cycle earliest);
    void chargeWait(Cycle from, Cycle to);
    bool contextRunnable(const Context &ctx, Cycle now) const;

    /** Fetch and install the block containing @p vaddr; pipelines the
     *  victim's write-backs. */
    Task fillCacheBlock(Addr vaddr);

    PEId id_;
    net::PniArray &pni_;
    net::Network &network_;

    std::vector<Context> contexts_;
    std::size_t running_ = 0;  //!< context currently on the pipeline
    std::size_t nextCtx_ = 0;  //!< round-robin scheduling cursor
    Cycle peClock_ = 0;        //!< pipeline clock within a resumption
    Cycle peFreeAt_ = 0;       //!< when the pipeline frees up

    /** The slots of every incomplete request, in no order. */
    std::vector<std::shared_ptr<LoadHandle::Slot>> inFlight_;

    std::unique_ptr<cache::Cache> cache_;

    PeStats stats_;
    Histogram *waitHist_ = nullptr;

    obs::EventTrace *trace_ = nullptr;
    std::uint32_t traceTrack_ = 0;
};

inline bool
LoadHandle::ready() const
{
    return slot_ && slot_->done;
}

inline auto
LoadHandle::operator co_await()
{
    // The handle's Pe is implicit: handles are created by startOp on the
    // same PE whose coroutine awaits them (checked by the machine tests).
    ULTRA_ASSERT(slot_ != nullptr, "awaiting an empty LoadHandle");
    return Pe::HandleAwait{*owner_, slot_.get()};
}

} // namespace ultra::pe

#endif // ULTRA_PE_PE_H
