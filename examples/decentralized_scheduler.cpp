/**
 * @file
 * The totally decentralized scheduler of section 2.3 on the simulated
 * Ultracomputer: PEs share one appendix-style parallel queue of task
 * descriptors; idle PEs delete work, running tasks may insert more,
 * nobody holds a lock.
 *
 *   $ ./decentralized_scheduler
 *
 * Exits 1 unless the run finishes and every spawned task executed.
 */

#include <cstdio>

#include "core/machine.h"
#include "core/task_pool.h"

using namespace ultra;
using core::Machine;
using core::MachineConfig;
using pe::Pe;
using pe::Task;

/*
 * Descriptors encode remaining spawn depth; executing a task of depth
 * d > 0 submits two children of depth d - 1 to the core::TaskPool.
 * Every PE runs the same worker loop -- there is no dispatcher and no
 * scheduler lock.
 */
int
main()
{
    MachineConfig config = MachineConfig::small(16);
    Machine machine(config);

    auto pool = core::TaskPool::create(machine, 128);
    const int roots = 12;
    const Word total_expected = roots * 7; // 2-level binary trees:
                                           // 1 + 2 + 4 tasks per root

    core::PoolHandler handler = [pool](Pe &pe, Word depth) -> Task {
        co_await pe.compute(40); // "execute" the task
        if (depth > 0) {
            co_await core::poolSubmit(pe, pool, depth - 1);
            co_await core::poolSubmit(pe, pool, depth - 1);
        }
    };

    machine.launchAll(16, [pool, handler, roots](Pe &pe) -> Task {
        // Decentralized seeding: the first PEs contribute the roots.
        if (pe.id() < static_cast<PEId>(roots))
            co_await core::poolSubmit(pe, pool, /*depth=*/2);
        co_await core::poolWorker(pe, pool, handler);
    });

    const bool finished = machine.run();
    const Word executed = machine.peek(pool.executed);
    std::printf("finished=%d tasks executed=%lld (expected %lld), "
                "%llu cycles\n",
                finished, static_cast<long long>(executed),
                static_cast<long long>(total_expected),
                static_cast<unsigned long long>(machine.now()));
    return finished && executed == total_expected ? 0 : 1;
}
