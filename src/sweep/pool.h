/**
 * @file
 * Fork-based worker pool for sweep jobs (ultra::sweep).
 *
 * Each job runs in its own forked child: a crash (segfault, OOM kill,
 * stuck simulation) takes down one point, not the sweep.  The parent
 * reaps completions, SIGKILLs jobs that exceed the per-job timeout,
 * and retries failures with exponential backoff up to a fixed attempt
 * budget.  Children communicate results through the filesystem only --
 * a per-point output file named by the point index -- so the merged
 * sweep output is a pure function of the job list, never of worker
 * count or completion order.
 *
 * Core counting (detectHostCores) is shared by the pool and the
 * benchmark records, so every consumer agrees: containers often pin CPU
 * affinity below the advertised core count (or report 0), and a pool
 * sized against the wrong denominator either oversubscribes or idles.
 */

#ifndef ULTRA_SWEEP_POOL_H
#define ULTRA_SWEEP_POOL_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ultra::sweep
{

/** Honest usable-core count:
 *  max(hardware_concurrency, sched_getaffinity), at least 1. */
unsigned detectHostCores();

struct PoolOptions
{
    unsigned workers = 1;     //!< concurrent children (>= 1)
    unsigned maxAttempts = 3; //!< total tries per job (>= 1)
    std::uint64_t timeoutNs = 0; //!< per-attempt wall budget (0 = none)
    std::uint64_t backoffNs = 0; //!< retry delay, doubled per attempt
};

struct PoolOutcome
{
    std::size_t succeeded = 0;
    std::size_t failed = 0;  //!< jobs that exhausted every attempt
    std::size_t retried = 0; //!< extra attempts across all jobs
};

/**
 * Run jobs 0..count-1 across forked workers.  @p fn executes in the
 * child and its return value becomes the child's exit status (0 =
 * success); a nonzero exit, a fatal signal or a timeout all count as
 * a failed attempt and trigger a retry while attempts remain.
 */
PoolOutcome
runForkPool(std::size_t count,
            const std::function<int(std::size_t index, unsigned attempt)> &fn,
            const PoolOptions &opts);

} // namespace ultra::sweep

#endif // ULTRA_SWEEP_POOL_H
