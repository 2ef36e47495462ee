#include "network.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "net/combining.h"
#include "obs/event_trace.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "prof/profiler.h"

namespace ultra::net
{

std::uint32_t
NetSimConfig::packetsFor(Op op, bool is_reply) const
{
    if (sizing == PacketSizing::Uniform)
        return m;
    const bool has_data =
        is_reply ? mem::opReturnsData(op) : mem::opCarriesData(op);
    return has_data ? dataPackets : 1;
}

bool
NetSimConfig::valid() const
{
    if (!isPowerOfTwo(numPorts) || !isPowerOfTwo(k) || k < 2)
        return false;
    if (m == 0 || d == 0 || dataPackets == 0 || maxCombinesPerVisit == 0)
        return false;
    // numPorts must be a power of k.
    std::uint64_t reach = 1;
    while (reach < numPorts)
        reach *= k;
    if (reach != numPorts)
        return false;
    // Finite queues must hold at least one maximal message.
    const std::uint32_t max_msg =
        sizing == PacketSizing::Uniform ? m : dataPackets;
    if (queueCapacityPackets != 0 && queueCapacityPackets < max_msg)
        return false;
    if (mmPendingCapacityPackets != 0 &&
        mmPendingCapacityPackets < max_msg) {
        return false;
    }
    return true;
}

Network::Node::Node(unsigned k, std::uint32_t qcap, std::uint32_t wbcap)
    : wb(wbcap)
{
    fwd.reserve(k);
    rev.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
        fwd.emplace_back(qcap);
        rev.emplace_back(qcap);
    }
}

Network::Network(const NetSimConfig &cfg, mem::MemorySystem &memory)
    : cfg_(cfg), topo_(cfg.numPorts, cfg.k), memory_(memory)
{
    ULTRA_ASSERT(cfg.valid(), "invalid network configuration");
    ULTRA_ASSERT(memory.config().numModules == cfg.numPorts,
                 "memory system must have one module per port");

    // In Burroughs (kill-on-conflict) mode there is no queueing and no
    // backpressure; queues act as single-message staging slots.
    const std::uint32_t qcap =
        cfg_.burroughsKill ? 0 : cfg_.queueCapacityPackets;
    const std::uint32_t mmcap =
        cfg_.burroughsKill ? 0 : cfg_.mmPendingCapacityPackets;

    stats_.combinesPerStage.assign(topo_.stages(), 0);

    copies_.resize(cfg_.d);
    for (unsigned c = 0; c < cfg_.d; ++c)
        copies_[c].index = c;
    for (auto &copy : copies_) {
        copy.stage.resize(topo_.stages());
        for (auto &stage : copy.stage) {
            stage.reserve(topo_.switchesPerStage());
            for (std::uint32_t i = 0; i < topo_.switchesPerStage(); ++i)
                stage.emplace_back(cfg_.k, qcap, cfg_.waitBufferCapacity);
        }
        copy.peLinkFreeAt.assign(cfg_.numPorts, 0);
        copy.mni.reserve(cfg_.numPorts);
        for (std::uint32_t i = 0; i < cfg_.numPorts; ++i)
            copy.mni.emplace_back(mmcap);
    }
    nextCopy_.assign(cfg_.numPorts, 0);
    injectStates_.resize(cfg_.numPorts);

    ActiveSet empty;
    empty.words.assign((topo_.switchesPerStage() + 63) / 64, 0);
    active_.assign(static_cast<std::size_t>(cfg_.d) * topo_.stages(),
                   empty);
    departSnapshot_ = active_;
}

Network::~Network() = default;

std::size_t
Network::inFlight() const
{
    return pool_.liveCount();
}

void
Network::activateMni(Copy &copy, MMId mm)
{
    MniState &mni = copy.mni[mm];
    mni.active = true;
    if (!mni.inList) {
        mni.inList = true;
        copy.activeMnis.push_back(mm);
    }
}

bool
Network::tryInject(PEId pe, Op op, Addr paddr, Word data,
                   std::uint64_t tag, Cycle queued_at)
{
    ULTRA_ASSERT(pe < cfg_.numPorts);
    const MMId dest = memory_.moduleOf(paddr);
    const std::uint32_t packets = cfg_.packetsFor(op, false);
    const OmegaTopology::Port entry = topo_.intoStage(pe, 0);
    const unsigned out_port = topo_.routeDigit(dest, 0);

    if (cfg_.idealParacomputer) {
        // Section 2.1: simultaneous access in a single cycle; the
        // serialization principle is realized by executing requests in
        // injection order at the next tick.
        Message *msg = pool_.alloc();
        msg->op = op;
        msg->paddr = paddr;
        msg->data = data;
        msg->origin = pe;
        msg->dest = dest;
        msg->packets = packets;
        msg->tag = tag;
        msg->injectedAt = now_;
        // Ideal mode bypasses every stage the observatory describes;
        // leave such messages unobserved.
        idealPending_.push_back({msg, now_ + 1});
        ++stats_.injected;
        if (trace_)
            trace_->instant(peTrack_, pe, "inject", now_, msg->id);
        return true;
    }

    InjectState &inj = injectStates_[pe];
    for (unsigned attempt = 0; attempt < cfg_.d; ++attempt) {
        // While a space claim is open, the PE is pinned to its copy.
        const unsigned c = inj.claimId != 0
                               ? inj.copy
                               : (nextCopy_[pe] + attempt) % cfg_.d;
        Copy &copy = copies_[c];
        if (copy.peLinkFreeAt[pe] > now_) {
            if (inj.claimId != 0)
                return false;
            continue;
        }
        Node &node = copy.stage[0][entry.sw];
        OutQueue &queue = node.fwd[out_port].queue;
        if (!cfg_.burroughsKill) {
            inj.copy = c;
            if (!acquireSpace(inj.claimId, inj.claimPkts,
                              inj.claimTarget, queue, packets)) {
                return false; // claim registered; caller retries
            }
        }
        Message *msg = pool_.alloc();
        msg->op = op;
        msg->paddr = paddr;
        msg->data = data;
        msg->origin = pe;
        msg->dest = dest;
        msg->packets = packets;
        msg->tag = tag;
        msg->injectedAt = now_;
        if (lat_)
            msg->lat = lat_->open(msg->id, queued_at, now_);
        copy.peLinkFreeAt[pe] = now_ + packets;
        node.fwdInbox.push_back({msg, now_ + 1});
        activateNode(copy, 0, entry.sw);
        nextCopy_[pe] = (c + 1) % cfg_.d;
        ++stats_.injected;
        if (trace_)
            trace_->instant(peTrack_, pe, "inject", now_, msg->id);
        return true;
    }
    return false;
}

bool
Network::acquireSpace(std::uint64_t &claim_id, std::uint32_t &claim_pkts,
                      OutQueue *&claim_target, OutQueue &target,
                      std::uint32_t pkts)
{
    if (claim_id != 0 &&
        (claim_target != &target || claim_pkts != pkts)) {
        // The head changed shape (e.g. grew by combining) or the
        // sender moved on: abandon the stale claim.
        claim_target->cancelClaim(claim_id);
        claim_id = 0;
    }
    if (claim_id == 0) {
        if (target.tryReserve(pkts))
            return true;
        claim_id = target.openClaim(pkts);
        claim_pkts = pkts;
        claim_target = &target;
    }
    if (target.claimReady(claim_id)) {
        target.consumeClaim(claim_id);
        claim_id = 0;
        return true;
    }
    return false;
}

bool
Network::tryCombine(Copy &copy, unsigned s, Node &node, std::uint32_t idx,
                    unsigned port, Message *msg)
{
    if (cfg_.burroughsKill || cfg_.combinePolicy == CombinePolicy::None)
        return false;
    OutQueue &queue = node.fwd[port].queue;
    if (node.wb.full())
        return false;

    const std::uint32_t growth_packets =
        cfg_.sizing == PacketSizing::Uniform ? 0 : cfg_.dataPackets;

    // Scan the queue's contiguous key array first: the common miss
    // touches one cache line per few entries instead of a Message each.
    const Addr *keys = queue.keys();
    const std::size_t n = queue.sizeMessages();
    for (std::size_t i = 0; i < n; ++i) {
        if (keys[i] != msg->paddr)
            continue;
        Message *cand = queue.msgAt(i);
        if (cand->combinedAtThisQueue >= cfg_.maxCombinesPerVisit)
            continue;
        auto plan = planCombine(*cand, *msg, cfg_.combinePolicy,
                                growth_packets);
        if (!plan)
            continue;
        if (plan->growOldBy != 0 && !queue.grow(cand, plan->growOldBy))
            continue;
        cand->op = plan->newOldOp;
        cand->data = plan->newOldData;
        ++cand->combinedAtThisQueue;
        ++cand->timesCombined;
        plan->entry.waitKey = cand->id;
        plan->entry.createdAt = now_;
        if (msg->lat) {
            // The absorbed request's record parks in the wait buffer
            // until the reply fissions it back out.
            lat_->noteCombined(msg->lat, s, idx, now_);
            plan->entry.lat = msg->lat;
            msg->lat = nullptr;
        }
        if (trace_) {
            trace_->instant(fwdTrack_[copy.index][s], traceLane(idx, port),
                            "combine", now_, msg->id, cand->id);
        }
        node.wb.insert(plan->entry);
        queue.cancelReservation(msg->packets);
        pool_.free(msg);
        ++stats_.combined;
        ++stats_.combinesPerStage[s];
        return true;
    }
    return false;
}

void
Network::arriveForward(Copy &copy, unsigned s, std::uint32_t idx,
                       Message *msg)
{
    Node &node = copy.stage[s][idx];
    const unsigned port = topo_.routeDigit(msg->dest, s);
    OutPort &out = node.fwd[port];
    if (msg->lat)
        lat_->noteFwdArrive(msg->lat, s, now_);

    if (cfg_.burroughsKill) {
        // Kill-on-conflict: the output must be idle or the request dies.
        if (out.linkFreeAt > now_ || !out.queue.empty()) {
            ++stats_.killed;
            if (trace_)
                trace_->instant(peTrack_, msg->origin, "kill", now_,
                                msg->id);
            // The kill callback is observable (the PNI re-queues the
            // request at the front), so kills fire at the end of the
            // tick, in arrival order.
            kills_.push_back(msg);
            return;
        }
        out.queue.enqueueUnreserved(msg);
        return;
    }

    if (tryCombine(copy, s, node, idx, port, msg))
        return;
    stats_.queueLenAtEnqueue.add(
        static_cast<double>(out.queue.usedPackets()));
    out.queue.enqueue(msg);
}

void
Network::arriveReverse(Copy &copy, unsigned s, std::uint32_t idx,
                       Message *msg)
{
    Node &node = copy.stage[s][idx];
    if (msg->lat)
        lat_->noteRevArrive(msg->lat, s, now_);

    // Fission: synthesize one reply per wait-buffer record.  Entries are
    // applied newest-first while threading the "current value": each
    // rewrite re-expresses the value an *earlier* combine should see, so
    // the reverse order reconstructs the serialization exactly (see
    // combining.h).
    const std::uint32_t packets_on_arrival = msg->packets;
    if (!node.wb.empty()) {
        matchScratch_.clear();
        node.wb.takeMatches(msg->requestId, matchScratch_);
        Word current = msg->data;
        for (std::size_t i = matchScratch_.size(); i-- > 0;) {
            const WaitEntry &entry = matchScratch_[i];
            Message *spawn = pool_.alloc();
            spawn->op = entry.satisfiedOp;
            spawn->isReply = true;
            spawn->paddr = msg->paddr;
            spawn->data = entry.rule == ReplyRule::Decombine
                              ? mem::decombineReply(entry.decombineOp,
                                                    current, entry.datum)
                              : entry.datum;
            spawn->origin = entry.satisfiedOrigin;
            spawn->dest = msg->dest;
            spawn->packets = cfg_.packetsFor(entry.satisfiedOp, true);
            spawn->requestId = entry.satisfiedId;
            spawn->tag = entry.satisfiedTag;
            spawn->injectedAt = entry.satisfiedInjectedAt;
            if (entry.lat) {
                spawn->lat = entry.lat;
                lat_->noteDecombine(spawn->lat, s, now_);
            }
            if (entry.rewriteReturning) {
                current = entry.rewriteDatum;
                // The returning "acknowledgement" now carries a value.
                msg->packets = std::max(
                    msg->packets, cfg_.packetsFor(Op::Load, true));
            }
            ++stats_.decombined;
            const unsigned sp_port =
                topo_.routeDigit(spawn->origin, s);
            if (trace_) {
                trace_->instant(revTrack_[copy.index][s],
                                traceLane(idx, sp_port), "decombine",
                                now_, spawn->id, entry.satisfiedId);
            }
            OutQueue &sp_queue = node.rev[sp_port].queue;
            if (!sp_queue.canAccept(spawn->packets))
                stats_.revOverflowPackets += spawn->packets;
            sp_queue.enqueueUnreserved(spawn);
        }
        msg->data = current;
    }

    const unsigned port = topo_.routeDigit(msg->origin, s);
    OutQueue &rev_queue = node.rev[port].queue;
    if (cfg_.burroughsKill) {
        rev_queue.enqueueUnreserved(msg);
    } else {
        // A rewrite may have grown the returning acknowledgement into
        // a data-carrying reply; claim the extra space (over capacity
        // if need be -- accounted as fission slack).
        if (msg->packets > packets_on_arrival) {
            const std::uint32_t extra =
                msg->packets - packets_on_arrival;
            rev_queue.reserve(extra);
            if (!rev_queue.canAccept(0))
                stats_.revOverflowPackets += extra;
        }
        rev_queue.enqueue(msg);
    }
}

void
Network::departToMni(Copy &copy, std::uint32_t idx, unsigned port)
{
    const unsigned s = topo_.stages() - 1;
    OutPort &out = copy.stage[s][idx].fwd[port];
    Message *msg = out.queue.head();
    // Final stage: the output line is the MM id.
    ULTRA_ASSERT(topo_.lineFrom(idx, port) == msg->dest,
                 "routing reached MM ", topo_.lineFrom(idx, port),
                 " but message is bound for ", msg->dest);
    MniState &mni = copy.mni[msg->dest];
    // Burroughs mode gives the MNIs unbounded pending queues, so only
    // the queued machine needs space here.
    if (!cfg_.burroughsKill &&
        !acquireSpace(out.claimId, out.claimPkts, out.claimTarget,
                      mni.pending, msg->packets)) {
        activateMni(copy, msg->dest); // claims need pumping
        return;                       // backpressure
    }
    out.queue.dequeue();
    out.linkFreeAt = now_ + msg->packets;
    if (msg->lat)
        lat_->noteFwdDepart(msg->lat, s, idx, now_, msg->packets, true);
    if (trace_) {
        trace_->complete(fwdTrack_[copy.index][s], traceLane(idx, port),
                         mem::opName(msg->op), now_, msg->packets,
                         msg->id);
    }
    // The MNI may begin service only once the tail has arrived.
    mni.inbox.push_back({msg, now_ + msg->packets});
    activateMni(copy, msg->dest);
}

void
Network::departForwardHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port)
{
    OutPort &out = copy.stage[s][idx].fwd[port];
    Message *msg = out.queue.head();
    const OmegaTopology::Port next =
        topo_.intoStage(topo_.lineFrom(idx, port), s + 1);
    Node &next_node = copy.stage[s + 1][next.sw];
    if (!cfg_.burroughsKill) {
        OutQueue &next_queue =
            next_node.fwd[topo_.routeDigit(msg->dest, s + 1)].queue;
        if (!acquireSpace(out.claimId, out.claimPkts, out.claimTarget,
                          next_queue, msg->packets)) {
            activateNode(copy, s + 1, next.sw); // claims need pumping
            return;                             // backpressure
        }
    }
    out.queue.dequeue();
    out.linkFreeAt = now_ + msg->packets;
    if (msg->lat)
        lat_->noteFwdDepart(msg->lat, s, idx, now_, msg->packets, false);
    if (trace_) {
        trace_->complete(fwdTrack_[copy.index][s], traceLane(idx, port),
                         mem::opName(msg->op), now_, msg->packets,
                         msg->id);
    }
    next_node.fwdInbox.push_back({msg, now_ + 1});
    activateNode(copy, s + 1, next.sw);
}

void
Network::departReverseHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port)
{
    OutPort &out = copy.stage[s][idx].rev[port];
    Message *msg = out.queue.head();
    // The PE-side line of this reverse output port.
    const std::uint32_t line = topo_.unshuffle(topo_.lineFrom(idx, port));
    const std::uint32_t prev_idx = line >> log2Exact(cfg_.k);
    Node &prev_node = copy.stage[s - 1][prev_idx];
    if (!cfg_.burroughsKill) {
        OutQueue &prev_queue =
            prev_node.rev[topo_.routeDigit(msg->origin, s - 1)].queue;
        if (!acquireSpace(out.claimId, out.claimPkts, out.claimTarget,
                          prev_queue, msg->packets)) {
            activateNode(copy, s - 1, prev_idx); // claims need pumping
            return;                              // backpressure
        }
    }
    out.queue.dequeue();
    out.linkFreeAt = now_ + msg->packets;
    if (msg->lat)
        lat_->noteRevDepart(msg->lat, s, idx, now_, msg->packets, false);
    if (trace_) {
        trace_->complete(revTrack_[copy.index][s], traceLane(idx, port),
                         mem::opName(msg->op), now_, msg->packets,
                         msg->id);
    }
    prev_node.revInbox.push_back({msg, now_ + 1});
    activateNode(copy, s - 1, prev_idx);
}

void
Network::departToPe(Copy &copy, std::uint32_t idx, unsigned port)
{
    OutPort &out = copy.stage[0][idx].rev[port];
    Message *msg = out.queue.head();
    // Deliver to the PNI once the tail arrives.
    ULTRA_ASSERT(topo_.unshuffle(topo_.lineFrom(idx, port)) == msg->origin,
                 "reply reached PE ",
                 topo_.unshuffle(topo_.lineFrom(idx, port)),
                 " but belongs to PE ", msg->origin);
    out.queue.dequeue();
    out.linkFreeAt = now_ + msg->packets;
    if (msg->lat)
        lat_->noteRevDepart(msg->lat, 0, idx, now_, msg->packets, true);
    if (trace_) {
        trace_->complete(revTrack_[copy.index][0], traceLane(idx, port),
                         mem::opName(msg->op), now_, msg->packets,
                         msg->id);
    }
    deliveries_.push_back({msg, now_ + msg->packets});
}

void
Network::arrivalPhase()
{
    const auto take_due = [this](std::vector<Arrival> &inbox, Copy &copy,
                                 unsigned s, std::uint32_t idx,
                                 bool forward) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < inbox.size(); ++i) {
            if (inbox[i].at <= now_) {
                if (forward)
                    arriveForward(copy, s, idx, inbox[i].msg);
                else
                    arriveReverse(copy, s, idx, inbox[i].msg);
            } else {
                inbox[keep++] = inbox[i];
            }
        }
        inbox.resize(keep);
    };

    for (Copy &copy : copies_) {
        for (unsigned s = 0; s < topo_.stages(); ++s) {
            ActiveSet &set = activeSet(copy.index, s);
            set.forEach([&](std::uint32_t idx) {
                Node &node = copy.stage[s][idx];
                bool busy =
                    !node.fwdInbox.empty() || !node.revInbox.empty();
                for (unsigned p = 0; p < cfg_.k && !busy; ++p) {
                    busy = !node.fwd[p].queue.empty() ||
                           !node.rev[p].queue.empty();
                }
                if (!busy) {
                    // Went idle after last cycle's departures.
                    set.clear(idx);
                    return;
                }
                take_due(node.fwdInbox, copy, s, idx, true);
                take_due(node.revInbox, copy, s, idx, false);
            });
        }
    }
}

void
Network::departForwardAll()
{
    const unsigned start = static_cast<unsigned>(now_) % cfg_.k;
    const unsigned last = topo_.stages() - 1;
    for (unsigned s = topo_.stages(); s-- > 0;) {
        for (Copy &copy : copies_) {
            departSnapshot_[copy.index * topo_.stages() + s].forEach(
                [&](std::uint32_t idx) {
                    Node &node = copy.stage[s][idx];
                    for (unsigned p = 0; p < cfg_.k; ++p) {
                        const unsigned port = (start + p) % cfg_.k;
                        const OutPort &out = node.fwd[port];
                        if (out.linkFreeAt > now_ || out.queue.empty())
                            continue;
                        if (s == last)
                            departToMni(copy, idx, port);
                        else
                            departForwardHop(copy, s, idx, port);
                    }
                });
        }
    }
}

void
Network::departReverseAll()
{
    const unsigned start = static_cast<unsigned>(now_) % cfg_.k;
    for (unsigned s = 0; s < topo_.stages(); ++s) {
        for (Copy &copy : copies_) {
            departSnapshot_[copy.index * topo_.stages() + s].forEach(
                [&](std::uint32_t idx) {
                    Node &node = copy.stage[s][idx];
                    for (unsigned p = 0; p < cfg_.k; ++p) {
                        const unsigned port = (start + p) % cfg_.k;
                        const OutPort &out = node.rev[port];
                        if (out.linkFreeAt > now_ || out.queue.empty())
                            continue;
                        if (s == 0)
                            departToPe(copy, idx, port);
                        else
                            departReverseHop(copy, s, idx, port);
                    }
                });
        }
    }
}

void
Network::fireArrivalKills()
{
    for (Message *msg : kills_) {
        if (msg->lat) {
            lat_->closeKilled(msg->lat);
            msg->lat = nullptr;
        }
        if (killFn_)
            killFn_(msg->origin, msg->tag);
        pool_.free(msg);
    }
    kills_.clear();
}

void
Network::processMnis(Copy &copy)
{
    for (std::size_t i = 0; i < copy.activeMnis.size(); ++i) {
        const MMId mm = copy.activeMnis[i];
        MniState &mni = copy.mni[mm];

        std::size_t keep = 0;
        for (std::size_t j = 0; j < mni.inbox.size(); ++j) {
            Arrival &arr = mni.inbox[j];
            if (arr.at <= now_) {
                arr.msg->mniArriveAt = arr.at;
                if (arr.msg->lat)
                    lat_->noteMniArrive(arr.msg->lat, arr.at);
                stats_.oneWayTransit.add(static_cast<double>(
                    arr.at - arr.msg->injectedAt));
                if (cfg_.burroughsKill)
                    mni.pending.enqueueUnreserved(arr.msg);
                else
                    mni.pending.enqueue(arr.msg);
            } else {
                mni.inbox[keep++] = arr;
            }
        }
        mni.inbox.resize(keep);

        if (mni.serviceFreeAt <= now_ && !mni.pending.empty()) {
            Message *msg = mni.pending.head();
            const std::uint32_t reply_packets =
                cfg_.packetsFor(msg->op, true);
            // Reverse-path entry point: the switch this request left.
            const std::uint32_t sw_idx = msg->dest >> log2Exact(cfg_.k);
            const unsigned last = topo_.stages() - 1;
            Node &entry_node = copy.stage[last][sw_idx];
            const unsigned rev_port =
                topo_.routeDigit(msg->origin, last);
            OutQueue &rev_queue = entry_node.rev[rev_port].queue;
            bool have_space;
            if (cfg_.burroughsKill) {
                have_space = true;
            } else {
                have_space = acquireSpace(mni.claimId, mni.claimPkts,
                                          mni.claimTarget, rev_queue,
                                          reply_packets);
                if (!have_space) {
                    // The claim is serviced as the rev queue drains.
                    activateNode(copy, last, sw_idx);
                }
            }
            if (have_space) {
                mni.pending.dequeue();
                stats_.mmQueueWait.add(
                    static_cast<double>(now_ - msg->mniArriveAt));
                if (msg->lat) {
                    lat_->noteServiceStart(
                        msg->lat, now_, 1 + msg->timesCombined,
                        std::max<Cycle>(cfg_.mmAccessTime,
                                        reply_packets));
                }
                if (trace_) {
                    trace_->complete(mmTrack_, mm, mem::opName(msg->op),
                                     now_, cfg_.mmAccessTime, msg->id);
                }
                msg->data =
                    memory_.execute(msg->op, msg->paddr, msg->data);
                makeReply(msg);
                msg->packets = reply_packets;
                entry_node.revInbox.push_back(
                    {msg, now_ + cfg_.mmAccessTime + 1});
                activateNode(copy, last, sw_idx);
                mni.serviceFreeAt =
                    now_ + std::max<Cycle>(cfg_.mmAccessTime,
                                           reply_packets);
                ++stats_.mmServed;
            }
        }

        mni.active = !mni.inbox.empty() || !mni.pending.empty();
    }
    std::erase_if(copy.activeMnis, [&](MMId mm) {
        MniState &mni = copy.mni[mm];
        if (mni.active)
            return false;
        mni.inList = false;
        return true;
    });
}

void
Network::makeReply(Message *msg)
{
    msg->isReply = true;
    msg->requestId = msg->id;
    msg->combinedAtThisQueue = 0;
}

void
Network::commitPhase()
{
    // Ideal-paracomputer mode: execute and answer everything injected
    // last cycle, in injection order.
    if (cfg_.idealParacomputer && !idealPending_.empty()) {
        std::size_t keep_ideal = 0;
        for (std::size_t i = 0; i < idealPending_.size(); ++i) {
            Arrival &arr = idealPending_[i];
            if (arr.at > now_) {
                idealPending_[keep_ideal++] = arr;
                continue;
            }
            Message *msg = arr.msg;
            msg->data = memory_.execute(msg->op, msg->paddr, msg->data);
            ++stats_.mmServed;
            stats_.oneWayTransit.add(1.0);
            makeReply(msg);
            deliveries_.push_back({msg, now_});
        }
        idealPending_.resize(keep_ideal);
    }

    // Deliveries due this cycle reach the PNIs first so reply-driven
    // callbacks can inject in the same cycle.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < deliveries_.size(); ++i) {
        Arrival &arr = deliveries_[i];
        if (arr.at <= now_) {
            Message *msg = arr.msg;
            stats_.roundTrip.add(
                static_cast<double>(arr.at - msg->injectedAt));
            stats_.roundTripHist.add(arr.at - msg->injectedAt);
            ++stats_.delivered;
            if (msg->lat) {
                lat_->closeDelivered(msg->lat, arr.at);
                msg->lat = nullptr;
            }
            if (trace_) {
                trace_->instant(peTrack_, msg->origin, "reply", now_,
                                msg->requestId);
            }
            if (deliverFn_)
                deliverFn_(msg->origin, msg->tag, msg->data);
            pool_.free(msg);
        } else {
            deliveries_[keep++] = arr;
        }
    }
    deliveries_.resize(keep);
}

void
Network::tick()
{
    // Chained phase stamps: each boundary is a single clock read, and
    // with no profiler attached the whole ladder compiles down to null
    // tests.  The phase times tile tick() wall time by construction.
    std::uint64_t mark = prof_ != nullptr ? prof::Profiler::nowNs() : 0;
    const auto lap = [&](prof::Phase p) {
        if (prof_ == nullptr)
            return;
        const std::uint64_t next = prof::Profiler::nowNs();
        prof_->phaseAdd(p, next - mark);
        mark = next;
    };
    commitPhase();
    lap(prof::Phase::NetCommit);
    for (auto &copy : copies_)
        processMnis(copy);
    lap(prof::Phase::NetMni);
    arrivalPhase();
    lap(prof::Phase::NetArrival);
    departSnapshot_ = active_;
    departForwardAll();
    lap(prof::Phase::NetSweepFwd);
    departReverseAll();
    // Arrival kills fire after every departure-time effect, so the
    // kill-callback order is fixed by the arrival sweep alone.
    fireArrivalKills();
    lap(prof::Phase::NetSweepRev);
    ++now_;
}

bool
Network::drain(Cycle max_cycles)
{
    const Cycle deadline = now_ + max_cycles;
    while (inFlight() > 0 && now_ < deadline)
        tick();
    return inFlight() == 0;
}


std::string
Network::dumpState() const
{
    std::ostringstream os;
    os << "cycle " << now_ << ", live messages " << inFlight() << "\n";
    auto show_queue = [&](const char *what, unsigned c, unsigned s,
                          std::uint32_t idx, unsigned port,
                          const OutQueue &queue, Cycle link_free) {
        if (queue.empty() && queue.reservedPackets() == 0)
            return;
        os << "  copy" << c << " stage" << s << " sw" << idx << " "
           << what << port << ": " << queue.sizeMessages() << " msgs, "
           << queue.usedPackets() << "+" << queue.reservedPackets()
           << " pkts";
        if (link_free > now_)
            os << ", link busy until " << link_free;
        if (!queue.empty()) {
            const Message *head = queue.head();
            os << ", head " << mem::opName(head->op)
               << (head->isReply ? " reply" : " req") << " paddr "
               << head->paddr << " pkts " << head->packets << " age "
               << (now_ - head->injectedAt);
        }
        os << "\n";
    };
    for (unsigned c = 0; c < copies_.size(); ++c) {
        const Copy &copy = copies_[c];
        for (unsigned s = 0; s < copy.stage.size(); ++s) {
            for (std::uint32_t idx = 0; idx < copy.stage[s].size();
                 ++idx) {
                const Node &node = copy.stage[s][idx];
                for (unsigned p = 0; p < cfg_.k; ++p) {
                    show_queue("fwd", c, s, idx, p, node.fwd[p].queue,
                               node.fwd[p].linkFreeAt);
                    show_queue("rev", c, s, idx, p, node.rev[p].queue,
                               node.rev[p].linkFreeAt);
                }
                if (!node.wb.empty()) {
                    os << "  copy" << c << " stage" << s << " sw"
                       << idx << " waitbuf: " << node.wb.size()
                       << " entries\n";
                }
                if (!node.fwdInbox.empty() || !node.revInbox.empty()) {
                    os << "  copy" << c << " stage" << s << " sw"
                       << idx << " inbox: " << node.fwdInbox.size()
                       << " fwd, " << node.revInbox.size()
                       << " rev\n";
                }
            }
        }
        for (MMId mm = 0; mm < copy.mni.size(); ++mm) {
            const MniState &mni = copy.mni[mm];
            if (mni.pending.empty() && mni.inbox.empty())
                continue;
            os << "  copy" << c << " mni" << mm << ": "
               << mni.pending.sizeMessages() << " msgs, "
               << mni.pending.usedPackets() << "+"
               << mni.pending.reservedPackets()
               << " pkts, service free at " << mni.serviceFreeAt
               << ", inbox " << mni.inbox.size() << "\n";
        }
    }
    return os.str();
}

namespace
{

/** Append one message as a JSON object (protocol dump format). */
void
messageJson(std::ostringstream &os, const Message *msg, Cycle now)
{
    os << "{\"id\": " << msg->id << ", \"op\": \""
       << mem::opName(msg->op) << "\", \"reply\": "
       << (msg->isReply ? "true" : "false") << ", \"paddr\": "
       << msg->paddr << ", \"origin\": " << msg->origin
       << ", \"dest\": " << msg->dest << ", \"packets\": "
       << msg->packets << ", \"combined\": " << msg->timesCombined
       << ", \"age\": " << (now - msg->injectedAt) << "}";
}

/** Append one output queue as a JSON object. */
void
queueJson(std::ostringstream &os, const OutQueue &queue, Cycle now)
{
    os << "{\"msgs\": " << queue.sizeMessages() << ", \"used_pkts\": "
       << queue.usedPackets() << ", \"reserved_pkts\": "
       << queue.reservedPackets() << ", \"capacity_pkts\": "
       << queue.capacityPackets() << ", \"entries\": [";
    bool first = true;
    for (const Message *msg : queue.entries()) {
        if (!first)
            os << ", ";
        first = false;
        messageJson(os, msg, now);
    }
    os << "]}";
}

} // namespace

std::string
Network::switchJson(unsigned copy, unsigned stage,
                    std::uint32_t index) const
{
    if (copy >= copies_.size() || stage >= topo_.stages() ||
        index >= copies_[copy].stage[stage].size()) {
        return "";
    }
    const Node &node = copies_[copy].stage[stage][index];
    std::ostringstream os;
    os << "{\"copy\": " << copy << ", \"stage\": " << stage
       << ", \"index\": " << index << ", \"tomm\": [";
    for (unsigned p = 0; p < cfg_.k; ++p) {
        if (p > 0)
            os << ", ";
        queueJson(os, node.fwd[p].queue, now_);
    }
    os << "], \"tope\": [";
    for (unsigned p = 0; p < cfg_.k; ++p) {
        if (p > 0)
            os << ", ";
        queueJson(os, node.rev[p].queue, now_);
    }
    os << "], \"wait_buffer\": [";
    bool first = true;
    for (const WaitEntry &entry : node.wb.entries()) {
        if (!first)
            os << ", ";
        first = false;
        os << "{\"wait_key\": " << entry.waitKey
           << ", \"satisfied_id\": " << entry.satisfiedId
           << ", \"origin\": " << entry.satisfiedOrigin
           << ", \"op\": \"" << mem::opName(entry.satisfiedOp)
           << "\", \"paddr\": " << entry.paddr << ", \"age\": "
           << (now_ - entry.createdAt) << "}";
    }
    os << "], \"inbox\": {\"fwd\": " << node.fwdInbox.size()
       << ", \"rev\": " << node.revInbox.size() << "}}";
    return os.str();
}

std::string
Network::mniJson(unsigned copy, MMId mm) const
{
    if (copy >= copies_.size() || mm >= copies_[copy].mni.size())
        return "";
    const MniState &mni = copies_[copy].mni[mm];
    std::ostringstream os;
    os << "{\"copy\": " << copy << ", \"module\": " << mm
       << ", \"service_free_at\": " << mni.serviceFreeAt
       << ", \"inbox\": " << mni.inbox.size() << ", \"pending\": ";
    queueJson(os, mni.pending, now_);
    os << "}";
    return os.str();
}

void
Network::resetStats()
{
    const auto stages = stats_.combinesPerStage.size();
    stats_ = NetStats{};
    stats_.combinesPerStage.assign(stages, 0);
}

std::uint64_t
Network::stageQueuePackets(unsigned stage, bool to_mm) const
{
    ULTRA_ASSERT(stage < topo_.stages());
    std::uint64_t total = 0;
    for (const Copy &copy : copies_) {
        for (const Node &node : copy.stage[stage]) {
            const auto &ports = to_mm ? node.fwd : node.rev;
            for (const OutPort &out : ports)
                total += out.queue.usedPackets();
        }
    }
    return total;
}

std::uint64_t
Network::stageWaitBufferEntries(unsigned stage) const
{
    ULTRA_ASSERT(stage < topo_.stages());
    std::uint64_t total = 0;
    for (const Copy &copy : copies_) {
        for (const Node &node : copy.stage[stage])
            total += node.wb.size();
    }
    return total;
}

std::uint64_t
Network::mniPendingPackets() const
{
    std::uint64_t total = 0;
    for (const Copy &copy : copies_) {
        for (const MniState &mni : copy.mni)
            total += mni.pending.usedPackets();
    }
    return total;
}

void
Network::registerStats(obs::Registry &registry,
                       const std::string &prefix) const
{
    auto count = [&](const char *leaf, const std::uint64_t NetStats::*f,
                     const char *desc) {
        registry.addScalar(prefix + "." + leaf,
                           [this, f] {
                               return static_cast<double>(stats_.*f);
                           },
                           desc);
    };
    count("injected", &NetStats::injected, "requests entered");
    count("mm_served", &NetStats::mmServed, "requests executed at MMs");
    count("delivered", &NetStats::delivered, "replies handed to PEs");
    count("combined", &NetStats::combined,
          "requests absorbed by combining");
    count("decombined", &NetStats::decombined,
          "replies synthesized back");
    count("killed", &NetStats::killed, "Burroughs-mode kills");
    count("rev_overflow_packets", &NetStats::revOverflowPackets,
          "fission slack packets");

    registry.addAccumulator(prefix + ".one_way_transit",
                            &stats_.oneWayTransit,
                            "inject -> full receipt at MNI, cycles");
    registry.addAccumulator(prefix + ".round_trip", &stats_.roundTrip,
                            "inject -> reply receipt at PE, cycles");
    registry.addAccumulator(prefix + ".mm_queue_wait",
                            &stats_.mmQueueWait,
                            "arrival at MNI -> service start, cycles");
    registry.addAccumulator(prefix + ".queue_len_at_enqueue",
                            &stats_.queueLenAtEnqueue,
                            "ToMM occupancy seen by arrivals, packets");
    registry.addHistogram(prefix + ".round_trip_hist",
                          &stats_.roundTripHist,
                          "round-trip latency distribution");

    registry.addScalar(prefix + ".mni_pending_pkts",
                       [this] {
                           return static_cast<double>(
                               mniPendingPackets());
                       },
                       "packets queued at MNIs (gauge)");
    for (unsigned s = 0; s < topo_.stages(); ++s) {
        const std::string stage =
            prefix + ".stage" + std::to_string(s) + ".";
        registry.addScalar(stage + "combines",
                           [this, s] {
                               return static_cast<double>(
                                   stats_.combinesPerStage[s]);
                           },
                           "requests combined at this stage");
        registry.addScalar(stage + "tomm_pkts",
                           [this, s] {
                               return static_cast<double>(
                                   stageQueuePackets(s, true));
                           },
                           "ToMM queue occupancy (gauge)");
        registry.addScalar(stage + "tope_pkts",
                           [this, s] {
                               return static_cast<double>(
                                   stageQueuePackets(s, false));
                           },
                           "ToPE queue occupancy (gauge)");
        registry.addScalar(stage + "wb_entries",
                           [this, s] {
                               return static_cast<double>(
                                   stageWaitBufferEntries(s));
                           },
                           "wait-buffer fill (gauge)");
    }
}

void
Network::setEventTrace(obs::EventTrace *trace)
{
    trace_ = trace;
    fwdTrack_.clear();
    revTrack_.clear();
    if (trace_ == nullptr)
        return;
    peTrack_ = trace_->track("pe");
    mmTrack_ = trace_->track("mm");
    fwdTrack_.resize(cfg_.d);
    revTrack_.resize(cfg_.d);
    for (unsigned c = 0; c < cfg_.d; ++c) {
        for (unsigned s = 0; s < topo_.stages(); ++s) {
            const std::string base = "net.copy" + std::to_string(c) +
                                     ".stage" + std::to_string(s);
            fwdTrack_[c].push_back(trace_->track(base + ".tomm"));
            revTrack_[c].push_back(trace_->track(base + ".tope"));
        }
    }
}

void
Network::setLatencyObservatory(obs::LatencyObservatory *lat)
{
    // Only whole-lifecycle records make sense: attach while messages are
    // in flight and the partial stamps would fail the decomposition
    // check the moment those messages complete.
    ULTRA_ASSERT(inFlight() == 0,
                 "attach the latency observatory while the network is "
                 "quiescent, not with ", inFlight(),
                 " messages in flight");
    lat_ = lat;
}

} // namespace ultra::net
