/**
 * @file
 * The per-output-port message queue of a switch (section 3.1.2 factor 3).
 *
 * Occupancy is counted in packets (the Table-1 simulation limits each
 * queue to fifteen packets).  Space is *reserved* by the upstream sender
 * when it starts transmitting, and converted to real occupancy when the
 * message arrives one hop later; this keeps finite-queue backpressure
 * race-free in the cycle-stepped simulation.  Entries in the middle of
 * the queue remain associatively searchable, which is what enables the
 * combining of section 3.3 (the hardware realization is the systolic
 * queue of section 3.3.1, modeled separately in systolic_queue.h).
 *
 * Storage is struct-of-arrays: the message pointers and their *combine
 * keys* (the physical address each queued request targets) live in two
 * parallel flat arrays behind a ring head.  The combining search — the
 * single hottest loop of a saturated run — then scans a contiguous
 * array of addresses without dereferencing a Message until a key
 * matches, and enqueue/dequeue never allocate in steady state (a deque
 * would allocate and free node blocks on every few operations).  The
 * space claims are a plain vector too: a deque allocates a block even
 * when empty, and a machine has tens of thousands of queues that
 * mostly never see a claim.
 */

#ifndef ULTRA_NET_OUT_QUEUE_H
#define ULTRA_NET_OUT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "net/message.h"

namespace ultra::net
{

/**
 * Searchable FIFO of messages with packet-granular occupancy.
 *
 * Space admission is fair in age order via *claims*: a sender whose
 * message does not fit registers a claim, and freed packets are granted
 * to the oldest claim before any newcomer may reserve.  Without this,
 * a long (data-carrying) message at a congested merge point starves
 * forever -- every freed packet is snatched by a 1-packet message from
 * the other input before 3 free packets ever accumulate (observed on
 * barrier traffic: fetch-and-adds starved behind a poll storm).
 */
class OutQueue
{
  public:
    /** Lightweight oldest-first view over the queued messages. */
    class View
    {
      public:
        View(Message *const *begin, Message *const *end)
            : begin_(begin), end_(end)
        {}
        Message *const *begin() const { return begin_; }
        Message *const *end() const { return end_; }
        std::size_t size() const
        {
            return static_cast<std::size_t>(end_ - begin_);
        }
        Message *operator[](std::size_t i) const { return begin_[i]; }

      private:
        Message *const *begin_;
        Message *const *end_;
    };

    /** @param capacity_packets 0 means unbounded. */
    explicit OutQueue(std::uint32_t capacity_packets = 0)
        : capacity_(capacity_packets)
    {}

    bool unbounded() const { return capacity_ == 0; }

    /** Free space check including reservations and granted claims. */
    bool
    canAccept(std::uint32_t pkts) const
    {
        return unbounded() ||
               used_ + reserved_ + grantedTotal_ + pkts <= capacity_;
    }

    /**
     * One-shot reservation: succeeds only when no older claim is
     * waiting and the space is free right now.  On success the space
     * must be consumed by a subsequent enqueue().
     */
    bool
    tryReserve(std::uint32_t pkts)
    {
        if (unbounded()) {
            reserved_ += pkts;
            return true;
        }
        pump();
        if (!claims_.empty())
            return false; // age-order fairness: claims go first
        if (used_ + reserved_ + grantedTotal_ + pkts > capacity_)
            return false;
        reserved_ += pkts;
        return true;
    }

    /** Register a waiting claim for @p pkts; returns its id. */
    std::uint64_t
    openClaim(std::uint32_t pkts)
    {
        ULTRA_ASSERT(!unbounded(), "claims are for bounded queues");
        claims_.push_back({nextClaimId_, pkts, 0});
        pump();
        return nextClaimId_++;
    }

    /** True when claim @p id is the oldest and fully granted. */
    bool
    claimReady(std::uint64_t id)
    {
        // Not logically a write, but pump() advances grant state.
        pump();
        return !claims_.empty() && claims_.front().id == id &&
               claims_.front().granted == claims_.front().needed;
    }

    /** Convert a ready claim's grant into a reservation. */
    void
    consumeClaim(std::uint64_t id)
    {
        ULTRA_ASSERT(claimReady(id), "consuming a claim that is not "
                     "ready");
        const Claim front = claims_.front();
        claims_.erase(claims_.begin());
        grantedTotal_ -= front.granted;
        reserved_ += front.needed;
    }

    /** Abandon a claim (e.g. the head message grew while waiting). */
    void
    cancelClaim(std::uint64_t id)
    {
        for (std::size_t i = 0; i < claims_.size(); ++i) {
            if (claims_[i].id == id) {
                grantedTotal_ -= claims_[i].granted;
                claims_.erase(claims_.begin() +
                              static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
        panic("cancelClaim: no such claim");
    }

    /** Claim space unconditionally (init paths and fission slack). */
    void
    reserve(std::uint32_t pkts)
    {
        reserved_ += pkts;
    }

    /** Return reserved space unused (e.g. the message was combined). */
    void
    cancelReservation(std::uint32_t pkts)
    {
        ULTRA_ASSERT(reserved_ >= pkts);
        reserved_ -= pkts;
    }

    /** Append an arriving message, consuming its reservation. */
    void
    enqueue(Message *msg)
    {
        ULTRA_ASSERT(reserved_ >= msg->packets,
                     "enqueue without prior reservation");
        reserved_ -= msg->packets;
        used_ += msg->packets;
        push(msg);
    }

    /** Append without a reservation (reply fission; may overflow). */
    void
    enqueueUnreserved(Message *msg)
    {
        used_ += msg->packets;
        push(msg);
    }

    /**
     * Grow a queued message by @p extra packets (heterogeneous combining
     * can upgrade a 1-packet load into a data-carrying request).
     * @return false (no change) if the space is not available.
     */
    bool
    grow(Message *msg, std::uint32_t extra)
    {
        if (extra == 0)
            return true;
        if (!unbounded() &&
            used_ + reserved_ + grantedTotal_ + extra > capacity_) {
            return false;
        }
        used_ += extra;
        msg->packets += extra;
        return true;
    }

    bool empty() const { return head_ == msgs_.size(); }
    std::size_t sizeMessages() const { return msgs_.size() - head_; }
    std::uint32_t usedPackets() const { return used_; }
    std::uint32_t reservedPackets() const { return reserved_; }
    std::uint32_t capacityPackets() const { return capacity_; }

    Message *head() const { return msgs_[head_]; }

    /** Remove and return the head message. */
    Message *
    dequeue()
    {
        Message *msg = msgs_[head_];
        ++head_;
        ULTRA_ASSERT(used_ >= msg->packets);
        used_ -= msg->packets;
        if (head_ == msgs_.size()) {
            msgs_.clear();
            keys_.clear();
            head_ = 0;
        } else if (head_ >= 32 && head_ * 2 >= msgs_.size()) {
            // Compact the consumed prefix once it dominates the array;
            // amortized O(1) per dequeue, and the backing storage is
            // recycled rather than reallocated.
            msgs_.erase(msgs_.begin(),
                        msgs_.begin() + static_cast<std::ptrdiff_t>(head_));
            keys_.erase(keys_.begin(),
                        keys_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        // The message leaves this switch: it may combine again later.
        msg->combinedAtThisQueue = 0;
        return msg;
    }

    /** Queued messages, oldest first, for dumps and iteration. */
    View
    entries() const
    {
        return View(msgs_.data() + head_, msgs_.data() + msgs_.size());
    }

    /**
     * The combine-key lane: keys()[i] is the physical address of
     * entries()[i].  Contiguous, so the combining search scans it
     * without touching Message memory (struct-of-arrays hot path).
     */
    const Addr *keys() const { return keys_.data() + head_; }

    /** Message at oldest-first position @p i (pairs with keys()). */
    Message *msgAt(std::size_t i) const { return msgs_[head_ + i]; }

  private:
    struct Claim
    {
        std::uint64_t id;
        std::uint32_t needed;
        std::uint32_t granted;
    };

    void
    push(Message *msg)
    {
        msgs_.push_back(msg);
        keys_.push_back(msg->paddr);
    }

    /** Grant freed space to the oldest claim (strict age order). */
    void
    pump()
    {
        if (claims_.empty())
            return;
        Claim &front = claims_.front();
        const std::uint32_t held = used_ + reserved_ + grantedTotal_;
        if (held >= capacity_)
            return;
        const std::uint32_t free_now = capacity_ - held;
        const std::uint32_t want = front.needed - front.granted;
        const std::uint32_t take = std::min(free_now, want);
        front.granted += take;
        grantedTotal_ += take;
    }

    std::uint32_t capacity_;
    std::uint32_t used_ = 0;
    std::uint32_t reserved_ = 0;
    std::uint32_t grantedTotal_ = 0;
    /** Waiting claims, oldest first.  Only the few senders feeding
     *  this queue ever claim it, so a flat vector is short, and an
     *  idle queue's empty vector allocates nothing. */
    std::vector<Claim> claims_;
    std::uint64_t nextClaimId_ = 1;
    /** Ring storage (struct-of-arrays): live entries are
     *  [head_, msgs_.size()); keys_ mirrors msgs_ index-for-index. */
    std::vector<Message *> msgs_;
    std::vector<Addr> keys_;
    std::size_t head_ = 0;
};

} // namespace ultra::net

#endif // ULTRA_NET_OUT_QUEUE_H
