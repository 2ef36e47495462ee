#include "coord.h"

#include "core/machine.h"

namespace ultra::core
{

ParallelQueue
ParallelQueue::create(Machine &machine, Word size)
{
    ULTRA_ASSERT(size > 0);
    ParallelQueue queue;
    queue.size = size;
    const std::size_t n = static_cast<std::size_t>(size);
    queue.data = machine.allocShared(n, "queue.data");
    queue.insPtr = machine.allocShared(1, "queue.I");
    queue.delPtr = machine.allocShared(1, "queue.D");
    queue.lower = machine.allocShared(1, "queue.#Qi");
    queue.upper = machine.allocShared(1, "queue.#Qu");
    queue.insSeq = machine.allocShared(n, "queue.insSeq");
    queue.delSeq = machine.allocShared(n, "queue.delSeq");
    return queue;
}

Barrier
Barrier::create(Machine &machine, Word parties)
{
    ULTRA_ASSERT(parties > 0);
    Barrier barrier;
    barrier.parties = parties;
    barrier.count = machine.allocShared(1, "barrier.count");
    barrier.sense = machine.allocShared(1, "barrier.sense");
    return barrier;
}

RwLock
RwLock::create(Machine &machine)
{
    RwLock lock;
    lock.readers = machine.allocShared(1, "rw.readers");
    lock.writer = machine.allocShared(1, "rw.writer");
    lock.wticket = machine.allocShared(1, "rw.wticket");
    lock.wserving = machine.allocShared(1, "rw.wserving");
    return lock;
}

} // namespace ultra::core
