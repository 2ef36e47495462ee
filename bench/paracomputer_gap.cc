/**
 * @file
 * The cost of physical realizability: the paper's machine is an
 * *approximation* of the ideal paracomputer (section 2.1), whose
 * single-cycle shared memory "cannot be built".  How close does the
 * combining network come?
 *
 * Each scientific workload runs twice on the same PE timing model:
 * once over the ideal paracomputer (one-cycle memory, unlimited
 * concurrency) and once over the real simulated network (6-cycle-ish
 * round trips, queueing, combining).  The slowdown factor is the price
 * of realizability; prefetching and the low shared-reference density
 * of the programs (section 4.2's conclusion) keep it small.
 */

#include <cstdio>

#include "apps/montecarlo.h"
#include "apps/multigrid.h"
#include "apps/shortest_path.h"
#include "apps/tred2.h"
#include "apps/weather.h"
#include "common/table.h"
#include "core/machine.h"

namespace
{

using namespace ultra;

core::MachineConfig
machineConfig(bool ideal)
{
    core::MachineConfig cfg = core::MachineConfig::small(64, 2);
    cfg.net.idealParacomputer = ideal;
    return cfg;
}

template <typename RunFn>
void
compare(TextTable &table, const std::string &name, RunFn run)
{
    core::Machine ideal_machine(machineConfig(true));
    core::Machine real_machine(machineConfig(false));
    const Cycle t_ideal = run(ideal_machine);
    const Cycle t_real = run(real_machine);
    table.addRow({name, std::to_string(t_ideal),
                  std::to_string(t_real),
                  TextTable::fmt(static_cast<double>(t_real) /
                                     static_cast<double>(t_ideal),
                                 2)});
}

} // namespace

int
main()
{
    std::printf("The paracomputer gap: workload time on the ideal "
                "single-cycle machine vs the\ncombining network "
                "(identical PE timing; 16 PEs)\n\n");
    TextTable table;
    table.setHeader({"workload", "paracomputer (cycles)",
                     "network (cycles)", "slowdown"});

    compare(table, "TRED2 N=32", [](core::Machine &machine) {
        return apps::tred2Parallel(machine, 16,
                                   apps::randomSymmetric(32, 4), 32)
            .cycles;
    });
    compare(table, "weather 32x32x4", [](core::Machine &machine) {
        apps::WeatherConfig cfg;
        cfg.rows = 32;
        cfg.cols = 32;
        cfg.steps = 4;
        return apps::weatherParallel(machine, 16, cfg,
                                     apps::weatherInitial(cfg, 3))
            .cycles;
    });
    compare(table, "multigrid lvl 5", [](core::Machine &machine) {
        apps::MultigridConfig cfg;
        cfg.level = 5;
        cfg.vCycles = 1;
        return apps::multigridParallel(machine, 16, cfg,
                                       apps::multigridRhs(cfg.level))
            .cycles;
    });
    compare(table, "montecarlo 512", [](core::Machine &machine) {
        apps::MonteCarloConfig cfg;
        cfg.particles = 512;
        return apps::monteCarloParallel(machine, 16, cfg).cycles;
    });
    compare(table, "sssp 64v", [](core::Machine &machine) {
        const apps::Graph graph = apps::randomGraph(64, 4, 2);
        return apps::shortestPathsParallel(machine, 16, graph, 0,
                                           false)
            .cycles;
    });

    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: compute-dense codes (TRED2, "
                "multigrid, montecarlo) sit within\n~1.2-2x of the "
                "unbuildable ideal -- the paper's thesis that a "
                "message-switched\ncombining network closely "
                "approximates the paracomputer; coordination-heavy\n"
                "codes (sssp's shared queue) pay more.\n");
    return 0;
}
