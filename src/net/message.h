/**
 * @file
 * Network messages and their pooled allocation.
 *
 * A message carries one memory request from a PE toward its memory
 * module, or one reply back.  Messages are transmitted as a train of
 * packets: under ByContent sizing (the Table-1 simulation), a message is
 * one packet when it carries no data (load request, store
 * acknowledgement) and kDataPackets (three) otherwise; under Uniform
 * sizing every message is exactly m packets, matching the assumptions of
 * the section-4.1 analytic model.
 *
 * Message ids are globally unique for a network's lifetime and are never
 * reused: wait-buffer entries key on the id of the combined (forwarded)
 * request, and a stale key colliding with a recycled id would mis-route
 * a reply.
 */

#ifndef ULTRA_NET_MESSAGE_H
#define ULTRA_NET_MESSAGE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.h"
#include "common/types.h"
#include "mem/fetch_phi.h"

namespace ultra::obs
{
struct LatencyRecord;
} // namespace ultra::obs

namespace ultra::net
{

using mem::Op;

/** Packets of a data-carrying message under ByContent sizing: "one
 *  packet without data and three with" (section 4.2). */
inline constexpr std::uint32_t kDataPackets = 3;

/** How message lengths (in packets) are assigned. */
enum class PacketSizing : std::uint8_t {
    Uniform,   //!< every message is m packets (analytic-model assumption)
    ByContent, //!< 1 packet without data, kDataPackets with (section 4.2)
};

/** Request-combining behaviour of the switches. */
enum class CombinePolicy : std::uint8_t {
    None,        //!< plain queued message switching, no combining
    Homogeneous, //!< combine only like requests (section 3.3 exposition)
    Full,        //!< also the heterogeneous rules of section 3.1.3
};

/** One request or reply in flight. */
struct Message
{
    std::uint64_t id = 0;        //!< globally unique, never reused
    Op op = Op::Load;
    bool isReply = false;
    Addr paddr = kBadAddr;       //!< physical word address
    Word data = 0;               //!< operand (request) or result (reply)
    PEId origin = 0;             //!< requesting PE (reply routing)
    MMId dest = 0;               //!< destination memory module
    std::uint32_t packets = 1;   //!< length in packets
    std::uint64_t requestId = 0; //!< replies: id of the request answered
    std::uint64_t tag = 0;       //!< opaque cookie for the injecting PNI

    Cycle injectedAt = 0;        //!< network entry time (stats)
    Cycle mniArriveAt = 0;       //!< full receipt at the MNI (stats)
    std::uint32_t timesCombined = 0; //!< requests folded into this one

    /** Pairs absorbed while in the current ToMM queue (pairwise cap). */
    std::uint32_t combinedAtThisQueue = 0;

    /** Lifecycle stamps, owned by the LatencyObservatory; null unless
     *  one is attached (see obs/latency.h).  Travels with the message
     *  and parks in a WaitEntry while combined away. */
    obs::LatencyRecord *lat = nullptr;
};

/**
 * Slab allocator for messages.  Slots are recycled but ids are not: every
 * alloc() stamps a fresh id from a monotonic counter, so ids follow
 * allocation order.
 *
 * Storage is blocks of kBlockSize slots, added as the pool runs dry and
 * kept for the pool's lifetime, so a steady-state run never allocates.
 * audit() exposes the slab accounting identity live + free == capacity
 * for the conservation tests.
 */
class MessagePool
{
  public:
    /** Slab accounting snapshot (see audit()). */
    struct Audit
    {
        std::size_t capacity = 0; //!< total slots across all blocks
        std::size_t live = 0;     //!< allocated and not yet freed
        std::size_t freeSlots = 0; //!< on the free list
        bool consistent() const { return live + freeSlots == capacity; }
    };

    Message *alloc();
    void free(Message *msg);

    /** Messages currently live (allocated and not freed). */
    std::size_t liveCount() const { return live_; }

    /** Total slots owned by this pool's slab blocks. */
    std::size_t capacity() const { return blocks_.size() * kBlockSize; }

    /** Slab accounting snapshot; consistent() must hold at any
     *  sequential point (every slot is either live or free). */
    Audit
    audit() const
    {
        return Audit{capacity(), live_, freeList_.size()};
    }

  private:
    static constexpr std::size_t kBlockSize = 1024;

    void
    addBlock()
    {
        blocks_.push_back(std::make_unique<Message[]>(kBlockSize));
        Message *block = blocks_.back().get();
        freeList_.reserve(freeList_.size() + kBlockSize);
        for (std::size_t i = kBlockSize; i-- > 0;)
            freeList_.push_back(&block[i]);
    }

    std::vector<std::unique_ptr<Message[]>> blocks_;
    std::vector<Message *> freeList_;
    std::uint64_t nextId_ = 1;
    std::size_t live_ = 0;
};

inline Message *
MessagePool::alloc()
{
    if (freeList_.empty())
        addBlock();
    Message *msg = freeList_.back();
    freeList_.pop_back();
    *msg = Message{};
    msg->id = nextId_++;
    ++live_;
    return msg;
}

inline void
MessagePool::free(Message *msg)
{
    ULTRA_ASSERT(live_ > 0, "pool free without a matching alloc");
    --live_;
    freeList_.push_back(msg);
}

} // namespace ultra::net

#endif // ULTRA_NET_MESSAGE_H
