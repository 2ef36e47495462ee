/**
 * @file
 * Processor-network interfaces (section 3.4).
 *
 * The PNI performs virtual-to-physical translation (with the hashing of
 * section 3.1.4), assembles requests, and enforces the pipelining
 * policy: a PE may have at most a configured number of outstanding
 * requests and -- always, as the wait-buffer design requires -- at most
 * one outstanding reference to any single memory location.  Requests issue
 * in FIFO order per PE; the head request stalls until its constraints
 * clear and a network copy accepts it.
 *
 * In Burroughs (kill-on-conflict) mode, killed requests are re-queued
 * and retried after a configurable delay.
 */

#ifndef ULTRA_NET_PNI_H
#define ULTRA_NET_PNI_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/address_hash.h"
#include "net/network.h"
#include "net/work_set.h"

namespace ultra::net
{

/** PNI policy knobs. */
struct PniConfig
{
    /** Max outstanding requests per PE (0 = unlimited). */
    unsigned maxOutstanding = 8;
    /** Burroughs mode: cycles to wait before retrying a killed request. */
    Cycle killRetryDelay = 4;
};

/** Per-PE request statistics (feeds Table 1). */
struct PniStats
{
    std::uint64_t completed = 0;
    std::uint64_t retries = 0; //!< Burroughs-mode re-issues
    Accumulator accessTime;    //!< request() -> completion, cycles
    Accumulator issueWait;     //!< request() -> network acceptance
};

/** The array of PNIs for all PEs, sharing one network. */
class PniArray
{
  public:
    /** Completion: the requested value (or ack) is available. */
    using CompleteFn =
        std::function<void(PEId pe, std::uint64_t ticket, Word value)>;

    PniArray(const PniConfig &cfg, Network &network,
             const mem::AddressHash &hash);

    PniArray(const PniArray &) = delete;
    PniArray &operator=(const PniArray &) = delete;

    void setCompleteCallback(CompleteFn fn) { completeFn_ = std::move(fn); }

    /** Observer of every request() call (trace recording; see
     *  net/trace.h).  Pass nullptr to detach. */
    using RequestProbe =
        std::function<void(PEId pe, Op op, Addr vaddr, Word data)>;
    void setRequestProbe(RequestProbe fn) { requestProbe_ = std::move(fn); }

    /** The network this PNI array feeds (for probes and replay). */
    Network &network() { return network_; }

    /**
     * Enqueue a request; returns a ticket identifying it.  Issue into
     * the network happens on subsequent tick()s, FIFO per PE.
     */
    std::uint64_t request(PEId pe, Op op, Addr vaddr, Word data);

    /** Issue eligible requests; call once per cycle before
     *  Network::tick(). */
    void tick();

    /** Requests queued or outstanding for @p pe. */
    std::size_t pendingCount(PEId pe) const;

    /** True when @p pe has nothing queued or outstanding. */
    bool idle(PEId pe) const { return pendingCount(pe) == 0; }

    const PniStats &stats() const { return stats_; }
    void resetStats();

    /** Requests enqueued by PEs (sum of per-PE counters). */
    std::uint64_t requestedCount() const;

    /** Requests currently in the network (all PEs, gauge). */
    std::size_t outstandingCount() const;

    /** Requests queued at the PNIs awaiting issue (all PEs, gauge). */
    std::size_t queuedCount() const;

    /** Register counters and gauges under "<prefix>." (see
     *  Network::registerStats). */
    void registerStats(obs::Registry &registry,
                       const std::string &prefix) const;

    const mem::AddressHash &hash() const { return hash_; }

  private:
    struct QueuedReq
    {
        std::uint64_t ticket;
        Op op;
        Addr paddr;
        Word data;
        Cycle queuedAt;
        Cycle notBefore; //!< kill-retry backoff
    };

    struct PeState
    {
        std::deque<QueuedReq> issueQueue;
        /** Requests in the network.  At most maxOutstanding entries
         *  (8 by default), so lookups by ticket or address are short
         *  linear scans. */
        std::vector<QueuedReq> outstanding;
        /** Tickets are per-PE: the network routes replies by (pe,
         *  ticket), so uniqueness per PE suffices, and a per-PE counter
         *  keeps ticket values independent of cross-PE request order. */
        std::uint64_t nextTicket = 1;
        std::uint64_t requested = 0;
    };

    /** Remove and return @p pe's outstanding request @p ticket. */
    QueuedReq takeOutstanding(PEId pe, std::uint64_t ticket,
                              const char *what);
    void onDeliver(PEId pe, std::uint64_t ticket, Word value);
    void onKill(PEId pe, std::uint64_t ticket);

    PniConfig cfg_;
    Network &network_;
    const mem::AddressHash &hash_;
    std::vector<PeState> pes_;
    /** PEs with a non-empty issue queue; tick() walks it in
     *  ascending PE id and clears each PE it drains.  Bits left set
     *  after a run's final tick carry over to the next run. */
    WorkSet queued_;
    PniStats stats_;
    CompleteFn completeFn_;
    RequestProbe requestProbe_;
};

} // namespace ultra::net

#endif // ULTRA_NET_PNI_H
