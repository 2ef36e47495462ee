/**
 * @file
 * Unit tests for the network's building blocks: OutQueue reservation
 * and occupancy accounting, message growth, the MessagePool's id
 * discipline, and packet sizing rules.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "net/out_queue.h"
#include "net/wait_buffer.h"

namespace ultra::net
{
namespace
{

Message *
makeMsg(MessagePool &pool, std::uint32_t packets)
{
    Message *msg = pool.alloc();
    msg->packets = packets;
    return msg;
}

TEST(OutQueueTest, ReserveEnqueueDequeueAccounting)
{
    MessagePool pool;
    OutQueue queue(10);
    EXPECT_TRUE(queue.canAccept(10));
    EXPECT_FALSE(queue.canAccept(11));

    queue.reserve(3);
    EXPECT_EQ(queue.reservedPackets(), 3u);
    EXPECT_TRUE(queue.canAccept(7));
    EXPECT_FALSE(queue.canAccept(8));

    Message *msg = makeMsg(pool, 3);
    queue.enqueue(msg);
    EXPECT_EQ(queue.reservedPackets(), 0u);
    EXPECT_EQ(queue.usedPackets(), 3u);
    EXPECT_EQ(queue.sizeMessages(), 1u);

    Message *out = queue.dequeue();
    EXPECT_EQ(out, msg);
    EXPECT_EQ(queue.usedPackets(), 0u);
    EXPECT_TRUE(queue.empty());
    pool.free(msg);
}

TEST(OutQueueTest, CancelReservation)
{
    OutQueue queue(6);
    queue.reserve(3);
    queue.cancelReservation(3);
    EXPECT_EQ(queue.reservedPackets(), 0u);
    EXPECT_TRUE(queue.canAccept(6));
}

TEST(OutQueueTest, UnboundedAcceptsEverything)
{
    MessagePool pool;
    OutQueue queue(0);
    EXPECT_TRUE(queue.unbounded());
    for (int i = 0; i < 100; ++i) {
        queue.reserve(3);
        queue.enqueue(makeMsg(pool, 3));
    }
    EXPECT_EQ(queue.usedPackets(), 300u);
}

TEST(OutQueueTest, GrowRespectsCapacity)
{
    MessagePool pool;
    OutQueue queue(8);
    queue.reserve(3);
    Message *msg = makeMsg(pool, 3);
    queue.enqueue(msg);
    EXPECT_TRUE(queue.grow(msg, 2));
    EXPECT_EQ(msg->packets, 5u);
    EXPECT_EQ(queue.usedPackets(), 5u);
    EXPECT_FALSE(queue.grow(msg, 4)) << "5 + 4 > 8 must fail";
    EXPECT_EQ(msg->packets, 5u);
    EXPECT_TRUE(queue.grow(msg, 0));
    pool.free(queue.dequeue());
}

TEST(OutQueueTest, FifoOrderAndSearchAccess)
{
    MessagePool pool;
    OutQueue queue(0);
    std::vector<Message *> msgs;
    for (int i = 0; i < 5; ++i) {
        Message *msg = makeMsg(pool, 1);
        msg->paddr = static_cast<Addr>(i);
        queue.reserve(1);
        queue.enqueue(msg);
        msgs.push_back(msg);
    }
    // Middle entries remain searchable ("entries within the middle of
    // the queue may also be accessed").
    EXPECT_EQ(queue.entries()[2]->paddr, 2u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(queue.dequeue(), msgs[i]);
}

TEST(OutQueueTest, DequeueResetsCombineMarker)
{
    MessagePool pool;
    OutQueue queue(0);
    Message *msg = makeMsg(pool, 1);
    msg->combinedAtThisQueue = 3;
    queue.reserve(1);
    queue.enqueue(msg);
    queue.dequeue();
    EXPECT_EQ(msg->combinedAtThisQueue, 0u)
        << "a message may combine again at later switches";
    pool.free(msg);
}

TEST(OutQueueTest, ClaimsAreServedInAgeOrder)
{
    MessagePool pool;
    OutQueue queue(6);
    // Fill the queue completely.
    queue.reserve(6);
    Message *big = makeMsg(pool, 6);
    queue.enqueue(big);

    // A 3-packet claim arrives first, then 1-packet newcomers try.
    const auto claim = queue.openClaim(3);
    EXPECT_FALSE(queue.claimReady(claim));
    EXPECT_FALSE(queue.tryReserve(1))
        << "newcomers must not overtake a waiting claim";

    // Drain: freed space is granted to the claim, not to tryReserve.
    queue.dequeue();
    EXPECT_TRUE(queue.claimReady(claim));
    EXPECT_FALSE(queue.tryReserve(1))
        << "granted claim space is not up for grabs";
    queue.consumeClaim(claim);
    // Claim space became a reservation; 3 packets remain free.
    EXPECT_TRUE(queue.tryReserve(3));
    EXPECT_FALSE(queue.tryReserve(1));
    pool.free(big);
}

TEST(OutQueueTest, PartialGrantsAccumulate)
{
    MessagePool pool;
    OutQueue queue(4);
    queue.reserve(4);
    Message *a = makeMsg(pool, 1);
    Message *b = makeMsg(pool, 3);
    // Occupy 4 packets as 1 + 3.
    queue.enqueue(a);
    queue.enqueue(b);
    const auto claim = queue.openClaim(3);
    queue.dequeue(); // frees 1: partial grant
    EXPECT_FALSE(queue.claimReady(claim));
    EXPECT_FALSE(queue.tryReserve(1)) << "partial grant held";
    queue.dequeue(); // frees 3 more: claim complete
    EXPECT_TRUE(queue.claimReady(claim));
    queue.consumeClaim(claim);
    pool.free(a);
    pool.free(b);
}

TEST(OutQueueTest, CancelClaimReleasesGrants)
{
    OutQueue queue(4);
    queue.reserve(4);
    const auto claim = queue.openClaim(2);
    queue.cancelReservation(4); // space frees; pump grants it
    EXPECT_TRUE(queue.claimReady(claim));
    queue.cancelClaim(claim);
    EXPECT_TRUE(queue.tryReserve(4)) << "cancelled grant returned";
}

TEST(OutQueueTest, SecondClaimWaitsForFirst)
{
    OutQueue queue(4);
    queue.reserve(4);
    const auto first = queue.openClaim(2);
    const auto second = queue.openClaim(2);
    queue.cancelReservation(4);
    EXPECT_TRUE(queue.claimReady(first));
    EXPECT_FALSE(queue.claimReady(second))
        << "strict FIFO: second claim waits for the first to consume";
    queue.consumeClaim(first);
    queue.cancelReservation(2); // pretend the first message passed
    EXPECT_TRUE(queue.claimReady(second));
    queue.consumeClaim(second);
}

TEST(OutQueueTest, BackpressureAtExactCapacity)
{
    MessagePool pool;
    OutQueue queue(4);
    ASSERT_TRUE(queue.tryReserve(4));
    // Exactly full: nothing more fits, not even one packet.
    EXPECT_FALSE(queue.canAccept(1));
    EXPECT_FALSE(queue.tryReserve(1));
    Message *msg = makeMsg(pool, 4);
    queue.enqueue(msg);
    EXPECT_FALSE(queue.tryReserve(1));
    // Draining the single message frees the whole capacity at once.
    queue.dequeue();
    EXPECT_TRUE(queue.canAccept(4));
    EXPECT_TRUE(queue.tryReserve(4));
    pool.free(msg);
}

TEST(OutQueueTest, GrowOnFullQueueFailsWithoutSideEffects)
{
    // Combine-on-full: upgrading a queued 1-packet load into a
    // data-carrying request must fail cleanly when the extra packets
    // do not fit, leaving the message and the accounting untouched.
    MessagePool pool;
    OutQueue queue(3);
    queue.reserve(3);
    Message *a = makeMsg(pool, 1);
    Message *b = makeMsg(pool, 2);
    queue.enqueue(a);
    queue.enqueue(b);
    EXPECT_FALSE(queue.grow(a, 2));
    EXPECT_EQ(a->packets, 1u);
    EXPECT_EQ(queue.usedPackets(), 3u);
    // Freeing b's packets makes the same grow succeed.
    queue.dequeue(); // a leaves (head)
    ASSERT_TRUE(queue.tryReserve(1));
    queue.enqueue(a); // re-admit behind b
    queue.dequeue(); // b leaves
    EXPECT_TRUE(queue.grow(a, 2));
    EXPECT_EQ(a->packets, 3u);
    EXPECT_EQ(queue.usedPackets(), 3u);
    pool.free(a);
    pool.free(b);
}

TEST(OutQueueTest, DrainPreservesEnqueueOrderUnderClaims)
{
    // Messages admitted through the claim path must still drain in
    // arrival order relative to messages admitted by tryReserve.
    MessagePool pool;
    OutQueue queue(4);
    ASSERT_TRUE(queue.tryReserve(4));
    Message *first = makeMsg(pool, 4);
    queue.enqueue(first);

    const auto claim = queue.openClaim(3);
    queue.dequeue(); // first leaves; the claim absorbs the space
    ASSERT_TRUE(queue.claimReady(claim));
    queue.consumeClaim(claim);
    Message *second = makeMsg(pool, 3);
    queue.enqueue(second);
    ASSERT_TRUE(queue.tryReserve(1));
    Message *third = makeMsg(pool, 1);
    queue.enqueue(third);

    EXPECT_EQ(queue.dequeue(), second);
    EXPECT_EQ(queue.dequeue(), third);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.usedPackets(), 0u);
    pool.free(first);
    pool.free(second);
    pool.free(third);
}

// ------------------------------------------------------------------
// WaitBuffer
// ------------------------------------------------------------------

WaitEntry
makeEntry(std::uint64_t wait_key, std::uint64_t satisfied_id)
{
    WaitEntry entry;
    entry.waitKey = wait_key;
    entry.satisfiedId = satisfied_id;
    return entry;
}

TEST(WaitBufferTest, CapacityGatesFullNotInsert)
{
    WaitBuffer buffer(2);
    EXPECT_FALSE(buffer.full());
    buffer.insert(makeEntry(1, 10));
    EXPECT_FALSE(buffer.full());
    buffer.insert(makeEntry(2, 20));
    // The switch checks full() before combining; at capacity no new
    // combine may be recorded.
    EXPECT_TRUE(buffer.full());
    EXPECT_EQ(buffer.size(), 2u);

    std::vector<WaitEntry> out;
    EXPECT_EQ(buffer.takeMatches(1, out), 1u);
    EXPECT_FALSE(buffer.full());
}

TEST(WaitBufferTest, UnboundedNeverFull)
{
    WaitBuffer buffer(0);
    for (int i = 0; i < 100; ++i)
        buffer.insert(makeEntry(static_cast<std::uint64_t>(i), 0));
    EXPECT_FALSE(buffer.full());
    EXPECT_EQ(buffer.size(), 100u);
}

TEST(WaitBufferTest, TakeMatchesDrainsInInsertionOrder)
{
    // Multi-way combining (the ablation knob) relies on matched
    // entries firing in their serialization (insertion) order.
    WaitBuffer buffer;
    buffer.insert(makeEntry(7, 1));
    buffer.insert(makeEntry(5, 2));
    buffer.insert(makeEntry(7, 3));
    buffer.insert(makeEntry(7, 4));

    std::vector<WaitEntry> out;
    EXPECT_EQ(buffer.takeMatches(7, out), 3u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].satisfiedId, 1u);
    EXPECT_EQ(out[1].satisfiedId, 3u);
    EXPECT_EQ(out[2].satisfiedId, 4u);
    // Non-matching entries stay behind.
    EXPECT_EQ(buffer.size(), 1u);
    EXPECT_EQ(buffer.entries().front().waitKey, 5u);

    // A second search for the same key finds nothing.
    out.clear();
    EXPECT_EQ(buffer.takeMatches(7, out), 0u);
    EXPECT_TRUE(out.empty());
}

TEST(WaitBufferTest, TakeMatchesAppendsToExistingOutput)
{
    WaitBuffer buffer;
    buffer.insert(makeEntry(3, 30));
    std::vector<WaitEntry> out;
    out.push_back(makeEntry(9, 90)); // pre-existing content
    EXPECT_EQ(buffer.takeMatches(3, out), 1u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].satisfiedId, 30u);
}

TEST(MessagePoolTest, IdsAreUniqueAcrossRecycling)
{
    // Wait-buffer keys are message ids; recycling an id could misroute
    // a reply, so ids must never repeat even when slots do.
    MessagePool pool;
    std::set<std::uint64_t> ids;
    std::vector<Message *> live;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i) {
            Message *msg = pool.alloc();
            ASSERT_TRUE(ids.insert(msg->id).second)
                << "id " << msg->id << " reused";
            live.push_back(msg);
        }
        for (Message *msg : live)
            pool.free(msg);
        live.clear();
    }
    EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(MessagePoolTest, AllocResetsFields)
{
    MessagePool pool;
    Message *a = pool.alloc();
    a->paddr = 99;
    a->timesCombined = 7;
    a->isReply = true;
    pool.free(a);
    Message *b = pool.alloc(); // likely the same slot
    EXPECT_EQ(b->paddr, kBadAddr);
    EXPECT_EQ(b->timesCombined, 0u);
    EXPECT_FALSE(b->isReply);
    pool.free(b);
}

TEST(PacketSizingTest, ByContentFollowsDataDirection)
{
    NetSimConfig cfg;
    cfg.sizing = PacketSizing::ByContent;
    // Requests: loads carry no data, stores and F&As do.
    EXPECT_EQ(cfg.packetsFor(Op::Load, false), 1u);
    EXPECT_EQ(cfg.packetsFor(Op::Store, false), 3u);
    EXPECT_EQ(cfg.packetsFor(Op::FetchAdd, false), 3u);
    EXPECT_EQ(cfg.packetsFor(Op::TestAndSet, false), 1u);
    // Replies: loads and F&As return data, store acks do not.
    EXPECT_EQ(cfg.packetsFor(Op::Load, true), 3u);
    EXPECT_EQ(cfg.packetsFor(Op::Store, true), 1u);
    EXPECT_EQ(cfg.packetsFor(Op::FetchAdd, true), 3u);
}

TEST(PacketSizingTest, UniformIgnoresContent)
{
    NetSimConfig cfg;
    cfg.sizing = PacketSizing::Uniform;
    cfg.m = 4;
    for (Op op : {Op::Load, Op::Store, Op::FetchAdd}) {
        EXPECT_EQ(cfg.packetsFor(op, false), 4u);
        EXPECT_EQ(cfg.packetsFor(op, true), 4u);
    }
}

} // namespace
} // namespace ultra::net
