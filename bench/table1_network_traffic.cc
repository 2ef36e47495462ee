/**
 * @file
 * Table 1 reproduction: network traffic and performance of four
 * parallel scientific programs on the simulated machine.
 *
 * Configuration as in section 4.2: a 4096-port network of six stages
 * of 4x4 switches, messages of one packet without data and three with,
 * queues limited to fifteen packets, and PE instruction time = MM
 * access time = 2 network cycles (so the minimum CM access time is
 * about eight instruction times).
 *
 * Programs (paper -> this repo):
 *   1. NASA weather PDE, 16 PEs  -> 2-D explicit diffusion, 16 PEs
 *   2. same, 48 PEs              -> same grid, 48 PEs
 *   3. TRED2, 16 PEs             -> parallel Householder reduction
 *   4. multigrid Poisson, 16 PEs -> V-cycle solver
 *
 * Columns (time unit = PE instruction time, as in the paper):
 *   avg CM access time | idle % | idle per CM ref | mem refs/instr |
 *   shared refs/instr
 *
 * Paper's values for comparison:
 *   1: 8.94  37%  5.3  0.21  0.08
 *   2: 8.83  39%  4.5  0.19  0.08
 *   3: 8.81  22%  4.9  0.25  0.05
 *   4: 8.85  19%  3.5  0.24  0.06
 */

#include <cstdio>
#include <functional>
#include <string>

#include "apps/multigrid.h"
#include "apps/tred2.h"
#include "apps/weather.h"
#include "common/table.h"
#include "core/machine.h"

namespace
{

using namespace ultra;

struct ProgramRow
{
    std::string name;
    std::uint32_t pes;
    Cycle cycles;
    pe::PeStats totals;
    double cmAccessCycles;
    std::uint64_t completedRefs;
};

core::MachineConfig
table1Machine()
{
    core::MachineConfig cfg = core::MachineConfig::paperTable1();
    cfg.wordsPerModule = 1 << 6; // 4096 modules x 64 words is plenty
    return cfg;
}

void
printRow(TextTable &table, const ProgramRow &row)
{
    const double instr_time = 2.0; // cycles per instruction
    const double duration =
        static_cast<double>(row.cycles) * row.pes;
    const double idle_frac =
        static_cast<double>(row.totals.idleCycles) / duration;
    // The paper's column is idle cycles per CM *load* (stores and
    // fetch-and-adds are pipelined; loads are what PEs wait for).
    const double idle_per_ref =
        static_cast<double>(row.totals.idleCycles) /
        static_cast<double>(row.totals.sharedLoads) / instr_time;
    const double mem_per_instr =
        static_cast<double>(row.totals.sharedRefs +
                            row.totals.privateRefs) /
        static_cast<double>(row.totals.instructions);
    const double shared_per_instr =
        static_cast<double>(row.totals.sharedRefs) /
        static_cast<double>(row.totals.instructions);
    table.addRow({row.name, std::to_string(row.pes),
                  TextTable::fmt(row.cmAccessCycles / instr_time, 2),
                  TextTable::pct(idle_frac),
                  TextTable::fmt(idle_per_ref, 1),
                  TextTable::fmt(mem_per_instr, 2),
                  TextTable::fmt(shared_per_instr, 3)});
}

ProgramRow
runWeather(std::uint32_t pes)
{
    core::Machine machine(table1Machine());
    apps::WeatherConfig cfg;
    cfg.rows = 48;
    cfg.cols = 32;
    cfg.steps = 4;
    const auto result = apps::weatherParallel(
        machine, pes, cfg, apps::weatherInitial(cfg, 5));
    return {"weather PDE", pes, result.cycles, result.peTotals,
            machine.pni().stats().accessTime.mean(),
            machine.pni().stats().completed};
}

ProgramRow
runTred2()
{
    core::Machine machine(table1Machine());
    const std::size_t n = 48;
    const auto result = apps::tred2Parallel(
        machine, 16, apps::randomSymmetric(n, 21), n);
    return {"TRED2", 16, result.cycles, result.peTotals,
            machine.pni().stats().accessTime.mean(),
            machine.pni().stats().completed};
}

ProgramRow
runMultigrid()
{
    core::Machine machine(table1Machine());
    apps::MultigridConfig cfg;
    cfg.level = 6;
    cfg.vCycles = 1;
    const auto result = apps::multigridParallel(
        machine, 16, cfg, apps::multigridRhs(cfg.level));
    return {"multigrid Poisson", 16, result.cycles, result.peTotals,
            machine.pni().stats().accessTime.mean(),
            machine.pni().stats().completed};
}

} // namespace

int
main()
{
    std::printf("Table 1: network traffic and performance "
                "(4096-port machine, 6 stages of 4x4 switches)\n");
    std::printf("time unit = PE instruction time (2 network cycles)\n\n");

    TextTable table;
    table.setHeader({"program", "PEs", "avg CM access", "idle cycles",
                     "idle/CM load", "mem ref/instr",
                     "shared ref/instr"});
    printRow(table, runWeather(16));
    printRow(table, runWeather(48));
    printRow(table, runTred2());
    printRow(table, runMultigrid());
    std::printf("%s", table.render().c_str());

    std::printf("\npaper (same columns):\n"
                "  weather 16 PE:    8.94  37%%  5.3  0.21  0.08\n"
                "  weather 48 PE:    8.83  39%%  4.5  0.19  0.08\n"
                "  TRED2 16 PE:      8.81  22%%  4.9  0.25  0.05\n"
                "  multigrid 16 PE:  8.85  19%%  3.5  0.24  0.06\n");
    std::printf("\nexpected shape: CM access close to the ~8-instr "
                "minimum (traffic well below capacity);\nweather idles "
                "more at 48 PEs than at 16, as in the paper.  The paper's "
                "weather also\nidles more than TRED2/multigrid at 16 PEs; "
                "ours does not (see EXPERIMENTS.md).\n");
    return 0;
}
