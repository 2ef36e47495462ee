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
    ticketCtx_.clear();
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
        if (!ctx.task.done() || ctx.pendingAsync != 0)
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

void
Pe::issueBlocking(Op op, Addr vaddr, Word data)
{
    ++stats_.instructions;
    ++stats_.sharedRefs;
    stats_.sharedLoads += op == Op::Load ? 1 : 0;
    stats_.busyCycles += kInstrTime;
    peClock_ += kInstrTime;
    peFreeAt_ = peClock_;
    Context &ctx = runningCtx();
    ctx.blockingTicket = pni_.request(id_, op, vaddr, data);
    ticketCtx_.emplace(ctx.blockingTicket, running_);
    ctx.blockStart = peClock_;
    ctx.state = State::BlockedMem;
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
    const std::uint64_t ticket = pni_.request(id_, op, vaddr, data);
    ticketCtx_.emplace(ticket, running_);
    inFlight_.emplace(ticket, slot);
    ++runningCtx().pendingAsync;
    return LoadHandle(this, slot);
}

void
Pe::postStore(Addr vaddr, Word value)
{
    (void)startOp(Op::Store, vaddr, value);
}

void
Pe::blockOnHandle(std::shared_ptr<LoadHandle::Slot> slot)
{
    Context &ctx = runningCtx();
    ctx.awaitedSlot = std::move(slot);
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
Pe::unblock(Context &ctx, Cycle earliest)
{
    ctx.readyAt = std::max(earliest, ctx.blockStart);
    stats_.idleCycles += ctx.readyAt - ctx.blockStart;
    if (waitHist_)
        waitHist_->add(ctx.readyAt - ctx.blockStart);
    if (trace_ && ctx.readyAt > ctx.blockStart) {
        trace_->complete(traceTrack_, id_, "wait", ctx.blockStart,
                         ctx.readyAt - ctx.blockStart);
    }
    ctx.state = State::Ready;
}

void
Pe::onComplete(std::uint64_t ticket, Word value)
{
    const Cycle now = network_.now();
    auto owner = ticketCtx_.find(ticket);
    ULTRA_ASSERT(owner != ticketCtx_.end(),
                 "completion for unknown ticket ", ticket, " at PE ",
                 id_);
    Context &ctx = contexts_[owner->second];
    ticketCtx_.erase(owner);

    if (ctx.state == State::BlockedMem && ticket == ctx.blockingTicket) {
        ctx.blockingValue = value;
        unblock(ctx, now);
        return;
    }
    auto it = inFlight_.find(ticket);
    ULTRA_ASSERT(it != inFlight_.end(),
                 "completion for unknown async ticket ", ticket,
                 " at PE ", id_);
    it->second->done = true;
    it->second->value = value;
    const bool was_awaited = ctx.state == State::BlockedHandle &&
                             ctx.awaitedSlot == it->second;
    inFlight_.erase(it);
    ULTRA_ASSERT(ctx.pendingAsync > 0);
    --ctx.pendingAsync;
    if (was_awaited) {
        ctx.awaitedSlot.reset();
        unblock(ctx, now);
    } else if (ctx.state == State::BlockedFence && ctx.pendingAsync == 0) {
        unblock(ctx, now);
    }
}

void
Pe::flushWaits(Cycle now)
{
    for (Context &ctx : contexts_) {
        if (ctx.state == State::Ready || ctx.blockStart >= now)
            continue;
        stats_.idleCycles += now - ctx.blockStart;
        if (waitHist_)
            waitHist_->add(now - ctx.blockStart);
        if (trace_) {
            trace_->complete(traceTrack_, id_, "wait", ctx.blockStart,
                             now - ctx.blockStart);
        }
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
    ULTRA_ASSERT(cache_ != nullptr, "PE ", id_, " has no cache");
    auto probe = cache_->read(vaddr);
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
    ULTRA_ASSERT(cache_ != nullptr, "PE ", id_, " has no cache");
    auto probe = cache_->write(vaddr, value);
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
    ULTRA_ASSERT(cache_ != nullptr, "PE ", id_, " has no cache");
    const auto dirty = cache_->flush(lo, hi);
    for (const auto &wb : dirty)
        postStore(wb.vaddr, wb.value);
    co_await fence();
}

void
Pe::cacheRelease(Addr lo, Addr hi)
{
    cache_->release(lo, hi);
}

} // namespace ultra::pe
