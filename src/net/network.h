/**
 * @file
 * The complete enhanced Omega network (section 3.1), cycle-stepped.
 *
 * N PEs talk through d identical copies of a D-stage network of k x k
 * combining switches to N memory modules.  The network is message
 * switched and pipelined: a message of L packets holds each traversed
 * link for L cycles, but its head advances one stage per cycle when
 * queues are empty (virtual cut-through), so the unloaded one-way
 * transit is D + 1 hops plus the m - 1 pipe-fill at the destination.
 *
 * Combining happens where a request enters a ToMM queue already holding
 * a matching request; wait buffers record the combined-away requests and
 * replies fission on their way back (section 3.3).  Fetch-and-phi is
 * executed by the MNI at the destination module (section 3.1.3), which
 * serves one request per kMmAccessTime cycles (Table 1's timing).
 *
 * A "Burroughs mode" reproduces the design the paper argues against
 * (section 3.1.2 factor 3): conflicting requests are killed instead of
 * queued, which limits bandwidth to O(N / log N).
 */

#ifndef ULTRA_NET_NETWORK_H
#define ULTRA_NET_NETWORK_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/memory_system.h"
#include "net/message.h"
#include "net/out_queue.h"
#include "net/routing.h"
#include "net/wait_buffer.h"
#include "net/work_set.h"

namespace ultra::obs
{
class EventTrace;
class LatencyObservatory;
class Registry;
} // namespace ultra::obs

namespace ultra::prof
{
class Profiler;
} // namespace ultra::prof

namespace ultra::net
{

/** Simulation parameters of the whole network. */
struct NetSimConfig
{
    /** Ports per side (number of PEs = number of MMs). */
    std::uint32_t numPorts = 64;
    /** Switch degree k. */
    unsigned k = 2;
    /** Packets per message under Uniform sizing (the factor m). */
    unsigned m = 2;
    /** Number of identical network copies d. */
    unsigned d = 1;
    PacketSizing sizing = PacketSizing::ByContent;
    /** ToMM / ToPE queue capacity in packets (0 = unbounded). */
    std::uint32_t queueCapacityPackets = 15;
    /** Wait-buffer entries per switch (0 = unbounded). */
    std::uint32_t waitBufferCapacity = 0;
    CombinePolicy combinePolicy = CombinePolicy::Homogeneous;
    /** Max pairs a queued request may absorb at one switch (>=1). */
    unsigned maxCombinesPerVisit = 1;
    /** MNI pending-queue capacity in packets (0 = unbounded). */
    std::uint32_t mmPendingCapacityPackets = 15;
    /** Kill-on-conflict switches instead of queues (baseline). */
    bool burroughsKill = false;

    /**
     * Ideal-paracomputer mode (section 2.1): bypass the switches
     * entirely and satisfy every request in one cycle with unlimited
     * concurrency -- the unrealizable reference model the network
     * approximates.  Useful for measuring the cost of physical
     * realizability (bench/paracomputer_gap).
     */
    bool idealParacomputer = false;

    /** Message length in packets for @p op in the given direction. */
    std::uint32_t packetsFor(Op op, bool is_reply) const;

    bool valid() const;
};

/** Aggregate network statistics. */
struct NetStats
{
    std::uint64_t injected = 0;        //!< requests entered
    std::uint64_t mmServed = 0;        //!< requests executed at MMs
    std::uint64_t delivered = 0;       //!< replies handed back to PEs
    std::uint64_t combined = 0;        //!< requests absorbed by combining
    std::uint64_t decombined = 0;      //!< replies synthesized back
    std::uint64_t killed = 0;          //!< Burroughs-mode kills
    std::uint64_t revOverflowPackets = 0; //!< fission slack (see docs)
    std::vector<std::uint64_t> combinesPerStage;

    Accumulator oneWayTransit;  //!< inject -> full receipt at MNI
    Accumulator roundTrip;      //!< inject -> reply receipt at PE
    Accumulator mmQueueWait;    //!< arrival at MNI -> service start
    Accumulator queueLenAtEnqueue; //!< ToMM occupancy seen by arrivals
    /** Round-trip latency distribution (2-cycle bins, for tail
     *  studies: percentile(0.5/0.95/0.99)). */
    Histogram roundTripHist{2, 256};
};

/**
 * The network plus MNIs; PEs (or synthetic traffic sources) sit on top
 * via tryInject() and the delivery callback.
 */
class Network
{
  public:
    /** Reply delivered to the requesting PE. */
    using DeliverFn =
        std::function<void(PEId pe, std::uint64_t tag, Word value)>;
    /** Burroughs-mode kill notification (request must be retried). */
    using KillFn = std::function<void(PEId pe, std::uint64_t tag)>;

    Network(const NetSimConfig &cfg, mem::MemorySystem &memory);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    void setDeliverCallback(DeliverFn fn) { deliverFn_ = std::move(fn); }
    void setKillCallback(KillFn fn) { killFn_ = std::move(fn); }

    /**
     * Attempt to inject a request from PE @p pe for physical address
     * @p paddr.  Fails (returns false) when every copy's injection link
     * is busy or the first-stage queue is full.  @p tag is returned
     * verbatim with the reply.  @p queued_at is when the request was
     * queued at its PNI (for latency attribution; kNeverCycle =
     * unknown, e.g. direct test injections).
     */
    bool tryInject(PEId pe, Op op, Addr paddr, Word data,
                   std::uint64_t tag, Cycle queued_at = kNeverCycle);

    /**
     * Advance one cycle, in the canonical serial order (DESIGN.md "The
     * serial network tick"): deliveries due now, the MNI sweep,
     * arrivals (copy, stage ascending, columns ascending), forward
     * departures stage-descending, reverse departures stage-ascending,
     * and finally this cycle's Burroughs arrival kills.  Called once
     * per cycle, after the PNIs issue (DESIGN.md "The cycle loop").
     */
    void tick();

    /**
     * tick() inside a caller's profiler lap chain: with a profiler
     * attached, the first sub-phase is charged from @p lapMark (the
     * caller's previous phase boundary) and @p lapMark is left at the
     * last one, so the caller's phases and the tick's tile the run
     * with no gap between them.
     */
    void tick(std::uint64_t &lapMark);

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Messages still inside the network or MNIs. */
    std::size_t inFlight() const;

    /**
     * Run until no messages are in flight or @p max_cycles elapse.
     * @return true if drained.
     */
    bool drain(Cycle max_cycles);

    const NetSimConfig &config() const { return cfg_; }
    const OmegaTopology &topology() const { return topo_; }
    const NetStats &stats() const { return stats_; }
    void resetStats();

    // --- observability (ultra::obs) -----------------------------------

    /**
     * Register counters, latency accumulators and live occupancy gauges
     * under "<prefix>." (e.g. "net.injected", "net.stage2.combines",
     * "net.stage2.tomm_pkts").  The registry reads through to this
     * network; resetStats() is reflected immediately.
     */
    void registerStats(obs::Registry &registry,
                       const std::string &prefix) const;

    /**
     * Attach (or detach, with nullptr) an event tracer.  Emits message
     * injects, per-stage link occupancy, combines, decombines, MM
     * service intervals and reply deliveries; detached, each hook is
     * one branch.
     */
    void setEventTrace(obs::EventTrace *trace);

    /**
     * Attach (or detach, with nullptr) a packet-lifecycle latency
     * observatory (obs/latency.h).  Every subsequently injected
     * request gets a pooled record stamped at injection, per-stage
     * queue entry/exit, combine/decombine, MNI receipt, service start
     * and delivery; messages already in flight stay unobserved.
     * Detached, each hook is one null test.
     */
    void setLatencyObservatory(obs::LatencyObservatory *lat);

    /**
     * Attach (or detach, with nullptr) a wall-clock profiler
     * (prof/profiler.h) that times every tick sub-phase (commit, MNI,
     * arrival, forward and reverse departures).  Purely observational:
     * output stays byte-identical with it attached.
     */
    void setProfiler(prof::Profiler *prof) { prof_ = prof; }

    /** Packets queued right now across one stage's ToMM (or ToPE)
     *  output queues, summed over copies and switches. */
    std::uint64_t stageQueuePackets(unsigned stage, bool to_mm) const;

    /** Wait-buffer entries held right now across one stage. */
    std::uint64_t stageWaitBufferEntries(unsigned stage) const;

    /** Packets pending in all MNI service queues right now. */
    std::uint64_t mniPendingPackets() const;

    /**
     * One switch's ToMM/ToPE queues and wait-buffer entries as a JSON
     * object (for the live inspection protocol, ultra::inspect).  Reads
     * only committed state -- call it between ticks.  Returns "" when
     * (copy, stage, index) is out of range.
     */
    std::string switchJson(unsigned copy, unsigned stage,
                           std::uint32_t index) const;

    /**
     * One MNI's pending service queue as a JSON object; "" when
     * (copy, mm) is out of range.
     */
    std::string mniJson(unsigned copy, MMId mm) const;

    /**
     * Slab accounting snapshot of the message pool (for the
     * conservation tests): capacity must equal live + free slots
     * between ticks, and live must be 0 with no messages in flight.
     */
    MessagePool::Audit poolAudit() const { return pool_.audit(); }

    /** Work-set audit (see workSetAudit()). */
    struct WorkSetAudit
    {
        /** Port bits that differ from "the port's queue is non-empty". */
        std::uint64_t portMismatches = 0;
        /** Inbox bits that differ from "the column's inboxes hold an
         *  entry". */
        std::uint64_t inboxMismatches = 0;
        bool exact() const
        {
            return portMismatches == 0 && inboxMismatches == 0;
        }
    };

    /**
     * Check every work set against the state it stands for: each
     * ready bit is set exactly when its queue is non-empty, each inbox
     * bit exactly when that column's inboxes are.  exact() must hold
     * between ticks.
     */
    WorkSetAudit workSetAudit() const;

  private:
    /** A sender's open space-claim for its head message on a
     *  downstream queue (age-fair admission; see OutQueue); id 0 means
     *  no claim is open. */
    struct SpaceClaim
    {
        std::uint64_t id = 0;
        std::uint32_t pkts = 0;
        OutQueue *target = nullptr;
    };

    struct OutPort
    {
        explicit OutPort(std::uint32_t capacity) : queue(capacity) {}
        OutQueue queue;
        Cycle linkFreeAt = 0;
        SpaceClaim claim;
    };

    struct Arrival
    {
        Message *msg;
        Cycle at;
    };

    struct Node
    {
        Node(unsigned k, std::uint32_t qcap, std::uint32_t wbcap);
        std::vector<OutPort> fwd; //!< k ToMM queues
        std::vector<OutPort> rev; //!< k ToPE queues
        WaitBuffer wb;
        std::vector<Arrival> fwdInbox;
        std::vector<Arrival> revInbox;
    };

    struct MniState
    {
        explicit MniState(std::uint32_t capacity) : pending(capacity) {}
        OutQueue pending;
        std::vector<Arrival> inbox;
        Cycle serviceFreeAt = 0;
        bool inList = false;
        SpaceClaim claim; //!< for the reply's reverse-path space
    };

    struct Copy
    {
        unsigned index = 0; //!< which of the d copies this is
        std::vector<std::vector<Node>> stage; //!< [stage][switch]
        std::vector<Cycle> peLinkFreeAt;      //!< injection links
        std::vector<MniState> mni;
        std::vector<MMId> activeMnis;
    };

    /** The work sets of one (copy, stage).  Departures never make a
     *  queue non-empty, so the ready sets change only by arrivals
     *  (set) and by departures that empty a queue (clear). */
    struct StageSets
    {
        WorkSet inbox;    //!< columns with a message in an inbox
        WorkSet fwdReady; //!< column * k + port: ToMM queue non-empty
        WorkSet revReady; //!< column * k + port: ToPE queue non-empty
    };

    StageSets &stageSets(const Copy &copy, unsigned s)
    {
        return sets_[static_cast<std::size_t>(copy.index) *
                         topo_.stages() +
                     s];
    }
    /** Column @p idx of stage @p s has an inbox entry now. */
    void markInbox(Copy &copy, unsigned s, std::uint32_t idx)
    {
        stageSets(copy, s).inbox.set(idx);
    }
    void activateMni(Copy &copy, MMId mm);

    /**
     * First step of a cycle: replies due now reach the PNIs (whose
     * callbacks may enqueue same-cycle re-injections), and ideal-mode
     * requests injected last cycle execute and stage their replies.
     */
    void commitPhase();

    /**
     * Arrivals: every column in an inbox set, in (copy, stage,
     * ascending column) order, consumes the inbox entries due this
     * cycle (enqueue, combining search, reply fission) and leaves the
     * set once its inboxes are empty.
     */
    void arrivalPhase();

    /**
     * Departures from the ready sets: forward in stage-descending
     * order, reverse in stage-ascending order, so a downstream dequeue
     * frees space before the upstream sender tries to claim it
     * (bubble-free ripple).  Each column's ready ports go in this
     * cycle's rotation; only those with an idle link are handed to
     * the hop functions, and a port leaves its set when its queue
     * empties.  A sender whose claim waits keeps its bit and retries
     * next cycle.
     */
    void departForwardAll();
    void departReverseAll();

    /** Fire this cycle's Burroughs arrival kills, in arrival order. */
    void fireArrivalKills();

    void processMnis(Copy &copy);

    void arriveForward(Copy &copy, unsigned s, std::uint32_t idx,
                       Message *msg);
    void arriveReverse(Copy &copy, unsigned s, std::uint32_t idx,
                       Message *msg);
    /**
     * The step every departure shares: dequeue the head of the ToMM
     * (@p forward) or ToPE queue at (@p s, @p idx, @p port), hold the
     * link for its packets, stamp its latency record and emit its
     * trace span.  Returns the departed message.
     */
    Message *departHead(Copy &copy, unsigned s, std::uint32_t idx,
                        unsigned port, bool forward);
    /* The departure functions below take a port whose link is idle
     * and whose queue is non-empty.  Each applies its own target's
     * backpressure rule, then hands on what departHead() dequeues. */
    /** Final forward stage: into the MNI. */
    void departToMni(Copy &copy, std::uint32_t idx, unsigned port);
    /** Non-final forward hop: stage s -> s + 1. */
    void departForwardHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port);
    /** Reverse hop: stage s -> s - 1 (s >= 1). */
    void departReverseHop(Copy &copy, unsigned s, std::uint32_t idx,
                          unsigned port);
    /** Reverse stage 0: toward the PE. */
    void departToPe(Copy &copy, std::uint32_t idx, unsigned port);

    /** Attempt combining; true when @p msg was absorbed. */
    bool tryCombine(Copy &copy, unsigned s, Node &node, std::uint32_t idx,
                    unsigned port, Message *msg);

    /**
     * Age-fair space acquisition on @p target for the head message of
     * a sender with @p claim: immediate reservation when possible,
     * else an open claim serviced in FIFO order as space frees.
     * Returns true once the space is reserved.
     */
    bool acquireSpace(SpaceClaim &claim, OutQueue &target,
                      std::uint32_t pkts);

    /** Turn a serviced request into its reply (in place). */
    void makeReply(Message *msg);

    NetSimConfig cfg_;
    OmegaTopology topo_;
    mem::MemorySystem &memory_;
    NetStats stats_;
    struct InjectState
    {
        SpaceClaim claim;
        unsigned copy = 0;     //!< the copy an open claim pins
        unsigned nextCopy = 0; //!< round-robin cursor over the copies
    };

    /** Trace lane for a stage's output queues: one tid per port. */
    std::uint32_t traceLane(std::uint32_t sw, unsigned port) const
    {
        return sw * cfg_.k + port;
    }

    obs::EventTrace *trace_ = nullptr;
    obs::LatencyObservatory *lat_ = nullptr;
    prof::Profiler *prof_ = nullptr;
    /** Interned track ids, valid while trace_ != nullptr. */
    std::vector<std::vector<std::uint32_t>> fwdTrack_; //!< [copy][stage]
    std::vector<std::vector<std::uint32_t>> revTrack_; //!< [copy][stage]
    std::uint32_t mmTrack_ = 0;
    std::uint32_t peTrack_ = 0;

    std::vector<Copy> copies_;
    MessagePool pool_;
    /** Work sets per (copy, stage), copy-major. */
    std::vector<StageSets> sets_;
    /** This cycle's Burroughs arrival kills, in arrival order. */
    std::vector<Message *> kills_;
    std::vector<WaitEntry> matchScratch_;
    std::vector<InjectState> injectStates_; //!< per PE
    Cycle now_ = 0;
    DeliverFn deliverFn_;
    KillFn killFn_;
    std::vector<Arrival> deliveries_;
    /** Ideal-mode requests awaiting their one-cycle completion. */
    std::vector<Arrival> idealPending_;
};

} // namespace ultra::net

#endif // ULTRA_NET_NETWORK_H
