#include "pe.h"

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "obs/event_trace.h"

namespace ultra::pe
{

Pe::Pe(PEId id, net::PniArray &pni, net::Network &network)
    : id_(id), pni_(pni), network_(network)
{}

void
Pe::setTask(Task task)
{
    contexts_.clear();
    inFlight_.clear();
    running_ = 0;
    nextCtx_ = 0;
    if (task.valid())
        addTask(std::move(task));
}

void
Pe::addTask(Task task)
{
    ULTRA_ASSERT(task.valid());
    Context ctx;
    ctx.current = task.handle();
    ctx.task = std::move(task);
    contexts_.push_back(std::move(ctx));
}

bool
Pe::hasTask() const
{
    return !contexts_.empty();
}

bool
Pe::finished() const
{
    if (contexts_.empty())
        return false;
    for (const Context &ctx : contexts_) {
        if (!ctx.task.done() || ctx.pending != 0)
            return false;
    }
    return true;
}

bool
Pe::contextRunnable(const Context &ctx, Cycle now) const
{
    return ctx.task.valid() && !ctx.task.done() &&
           ctx.state == State::Ready && ctx.readyAt <= now;
}

bool
Pe::runnable(Cycle now) const
{
    if (peFreeAt_ > now)
        return false; // the pipeline is still executing instructions
    for (const Context &ctx : contexts_) {
        if (contextRunnable(ctx, now))
            return true;
    }
    return false;
}

Cycle
Pe::wakeAt() const
{
    Cycle least = kNeverCycle;
    for (const Context &ctx : contexts_) {
        if (ctx.task.valid() && !ctx.task.done() &&
            ctx.state == State::Ready) {
            least = std::min(least, ctx.readyAt);
        }
    }
    return least == kNeverCycle ? kNeverCycle
                                : std::max(peFreeAt_, least);
}

void
Pe::step(Cycle now)
{
    ULTRA_ASSERT(runnable(now));
    // Round-robin among ready contexts so multiprogrammed tasks share
    // the pipeline fairly.
    const std::size_t n = contexts_.size();
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = (nextCtx_ + i) % n;
        if (contextRunnable(contexts_[idx], now)) {
            pick = idx;
            break;
        }
    }
    ULTRA_ASSERT(pick < n);
    running_ = pick;
    nextCtx_ = (pick + 1) % n;
    peClock_ = now;
    Context &ctx = contexts_[pick];
    ctx.current.resume();
    ctx.task.rethrowIfFailed();
}

void
Pe::chargeCompute(std::uint64_t instructions, std::uint64_t private_refs)
{
    stats_.instructions += instructions;
    stats_.privateRefs += private_refs;
    stats_.busyCycles += instructions * kInstrTime;
    peClock_ += instructions * kInstrTime;
    peFreeAt_ = peClock_;
    Context &ctx = runningCtx();
    // Guarantee forward progress even for compute(0).
    ctx.readyAt = instructions == 0 ? peClock_ + 1 : peClock_;
    ctx.state = State::Ready;
}

LoadHandle
Pe::startOp(Op op, Addr vaddr, Word data)
{
    ++stats_.instructions;
    ++stats_.sharedRefs;
    stats_.sharedLoads += op == Op::Load ? 1 : 0;
    stats_.busyCycles += kInstrTime;
    peClock_ += kInstrTime;
    peFreeAt_ = peClock_;
    auto slot = std::make_shared<LoadHandle::Slot>();
    slot->ticket = pni_.request(id_, op, vaddr, data);
    slot->ctx = running_;
    inFlight_.push_back(slot);
    ++runningCtx().pending;
    return LoadHandle(this, std::move(slot));
}

void
Pe::postStore(Addr vaddr, Word value)
{
    (void)startOp(Op::Store, vaddr, value);
}

void
Pe::blockOnHandle(const LoadHandle::Slot *slot)
{
    Context &ctx = runningCtx();
    ctx.awaitedSlot = slot;
    ctx.blockStart = peClock_;
    ctx.state = State::BlockedHandle;
    peFreeAt_ = peClock_;
}

void
Pe::blockOnFence()
{
    Context &ctx = runningCtx();
    ctx.blockStart = peClock_;
    ctx.state = State::BlockedFence;
    peFreeAt_ = peClock_;
}

void
Pe::chargeWait(Cycle from, Cycle to)
{
    stats_.idleCycles += to - from;
    if (waitHist_)
        waitHist_->add(to - from);
    if (trace_ && to > from)
        trace_->complete(traceTrack_, id_, "wait", from, to - from);
}

void
Pe::unblock(Context &ctx, Cycle earliest)
{
    ctx.readyAt = std::max(earliest, ctx.blockStart);
    chargeWait(ctx.blockStart, ctx.readyAt);
    ctx.state = State::Ready;
}

void
Pe::onComplete(std::uint64_t ticket, Word value)
{
    auto it = std::find_if(inFlight_.begin(), inFlight_.end(),
                           [ticket](const auto &slot) {
                               return slot->ticket == ticket;
                           });
    ULTRA_ASSERT(it != inFlight_.end(), "completion for unknown ticket ",
                 ticket, " at PE ", id_);
    std::swap(*it, inFlight_.back());
    const std::shared_ptr<LoadHandle::Slot> slot =
        std::move(inFlight_.back());
    inFlight_.pop_back();
    slot->done = true;
    slot->value = value;

    Context &ctx = contexts_[slot->ctx];
    ULTRA_ASSERT(ctx.pending > 0);
    --ctx.pending;
    if (ctx.state == State::BlockedHandle && ctx.awaitedSlot == slot.get()) {
        ctx.awaitedSlot = nullptr;
        unblock(ctx, network_.now());
    } else if (ctx.state == State::BlockedFence && ctx.pending == 0) {
        unblock(ctx, network_.now());
    }
}

void
Pe::flushWaits(Cycle now)
{
    for (Context &ctx : contexts_) {
        if (ctx.state == State::Ready || ctx.blockStart >= now)
            continue;
        chargeWait(ctx.blockStart, now);
        ctx.blockStart = now;
    }
}

// --------------------------------------------------------------------
// Cached local memory (sections 3.2, 3.4)
// --------------------------------------------------------------------

void
Pe::attachCache(const cache::CacheConfig &cfg)
{
    cache_ = std::make_unique<cache::Cache>(cfg);
}

cache::Cache &
Pe::cache()
{
    ULTRA_ASSERT(cache_ != nullptr, "PE ", id_, " has no cache "
                 "attached");
    return *cache_;
}

Task
Pe::fillCacheBlock(Addr vaddr)
{
    const std::uint32_t block_words = cache_->config().blockWords;
    const Addr base = vaddr & ~static_cast<Addr>(block_words - 1);
    // Fetch the whole block with pipelined (locked-register) loads.
    std::vector<LoadHandle> handles;
    handles.reserve(block_words);
    for (std::uint32_t w = 0; w < block_words; ++w)
        handles.push_back(startLoad(base + w));
    std::vector<Word> words(block_words);
    for (std::uint32_t w = 0; w < block_words; ++w)
        words[w] = co_await handles[w];
    cache_->installBlock(base, words.data());
}

Task
Pe::cachedLoad(Addr vaddr, Word *out)
{
    auto probe = cache().read(vaddr);
    if (probe.hit) {
        // A cache hit costs one instruction, like a register reference.
        co_await privateRefs(1);
        *out = probe.value;
        co_return;
    }
    // Miss: write back the victim's dirty words (pipelined -- "cache
    // generated traffic can always be pipelined"), fetch the block.
    for (const auto &wb : probe.writeBacks)
        postStore(wb.vaddr, wb.value);
    co_await fillCacheBlock(vaddr);
    Word filled = 0;
    const bool landed = cache_->probe(vaddr, &filled);
    ULTRA_ASSERT(landed, "fill did not land");
    *out = filled;
}

Task
Pe::cachedStore(Addr vaddr, Word value)
{
    auto probe = cache().write(vaddr, value);
    if (probe.hit) {
        co_await privateRefs(1);
        co_return;
    }
    // Write-allocate: fetch the block, then the write hits.
    for (const auto &wb : probe.writeBacks)
        postStore(wb.vaddr, wb.value);
    co_await fillCacheBlock(vaddr);
    auto again = cache_->write(vaddr, value);
    ULTRA_ASSERT(again.hit, "fill did not land");
    co_await privateRefs(1);
}

Task
Pe::cacheFlush(Addr lo, Addr hi)
{
    const auto dirty = cache().flush(lo, hi);
    for (const auto &wb : dirty)
        postStore(wb.vaddr, wb.value);
    co_await fence();
}

void
Pe::cacheRelease(Addr lo, Addr hi)
{
    cache().release(lo, hi);
}

} // namespace ultra::pe
