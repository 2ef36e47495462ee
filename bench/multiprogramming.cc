/**
 * @file
 * Section 3.5 / Table 3 premise, validated on the simulator: "k-fold
 * multiprogramming is equivalent to using k times as many PEs -- each
 * having relative performance 1/k", and hardware multiprogramming
 * recovers waiting time.
 *
 * Fixed logical parallelism (W TRED2 workers), swept over how many
 * physical PEs carry them: W PEs x 1 context, W/2 x 2, W/4 x 4.
 * Folding contexts onto fewer PEs costs compute serialization but
 * recovers memory-wait time, so the slowdown is well below the fold
 * factor -- pipeline utilization rises toward 100 %, which is exactly
 * the "optimistic assumption that all the waiting time can be
 * recovered" behind Table 3.
 */

#include <cstdio>

#include "apps/tred2.h"
#include "common/table.h"
#include "core/machine.h"

namespace
{

using namespace ultra;

struct Row
{
    std::uint32_t physicalPes;
    std::uint32_t contexts;
    Cycle cycles;
    double utilization; //!< pipeline busy fraction
    double waitPerWorker;
};

Row
runFolded(std::uint32_t workers, std::uint32_t contexts, std::size_t n)
{
    core::MachineConfig cfg = core::MachineConfig::small(
        std::max<std::uint32_t>(16, workers), 2);
    core::Machine machine(cfg);
    const auto result = apps::tred2Parallel(
        machine, workers, apps::randomSymmetric(n, 9), n, contexts);
    Row row;
    row.physicalPes = workers / contexts;
    row.contexts = contexts;
    row.cycles = result.cycles;
    row.utilization =
        static_cast<double>(result.peTotals.busyCycles) /
        (static_cast<double>(result.cycles) * row.physicalPes);
    row.waitPerWorker =
        static_cast<double>(result.peTotals.idleCycles) / workers;
    return row;
}

} // namespace

int
main()
{
    const std::uint32_t workers = 16;
    const std::size_t n = 32;
    std::printf("Section 3.5: hardware multiprogramming of TRED2 "
                "(%u workers, N = %zu)\n\n",
                workers, n);
    TextTable table;
    table.setHeader({"physical PEs", "contexts/PE", "T (cycles)",
                     "slowdown vs unfolded", "pipeline utilization",
                     "wait/worker (cycles)"});
    const Row base = runFolded(workers, 1, n);
    for (std::uint32_t contexts : {1u, 2u, 4u}) {
        const Row row =
            contexts == 1 ? base : runFolded(workers, contexts, n);
        table.addRow({std::to_string(row.physicalPes),
                      std::to_string(row.contexts),
                      std::to_string(row.cycles),
                      TextTable::fmt(static_cast<double>(row.cycles) /
                                         static_cast<double>(base.cycles),
                                     2),
                      TextTable::pct(row.utilization),
                      TextTable::fmt(row.waitPerWorker, 0)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: folding 16 workers onto 8 or 4 PEs "
                "slows the run by much less\nthan 2x / 4x, because "
                "co-resident contexts execute during each other's\n"
                "memory waits (pipeline utilization climbs toward "
                "100%%) -- the waiting-time\nrecovery Table 3 assumes.\n");
    return 0;
}
