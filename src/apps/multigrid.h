/**
 * @file
 * Multigrid Poisson solver (Table 1 program 4; cf. Rushfield [81]).
 *
 * Solves the 2-D Poisson problem -lap(u) = f on the unit square with
 * homogeneous Dirichlet boundaries using V-cycles: weighted-Jacobi
 * smoothing, full-weighting restriction, bilinear prolongation, with a
 * direct relaxation solve on the coarsest (3 x 3) grid.  Grids are
 * (2^level + 1) square.  Parallelization is by row blocks at every
 * level with barriers between phases; the program was "designed to
 * minimize the number of accesses to shared data", which the per-point
 * instruction budget reflects (about 0.24 data references per
 * instruction, 0.06 shared).
 */

#ifndef ULTRA_APPS_MULTIGRID_H
#define ULTRA_APPS_MULTIGRID_H

#include <cstdint>
#include <vector>

#include "core/machine.h"

namespace ultra::apps
{

/** Multigrid-run parameters. */
struct MultigridConfig
{
    unsigned level = 4; //!< finest grid is (2^level + 1)^2
    unsigned vCycles = 2;
};

/** Outcome of a multigrid run. */
struct MultigridResult
{
    std::vector<double> solution; //!< fine-grid u, row-major
    double residualNorm = 0.0;    //!< final max-norm residual
    Cycle cycles = 0;
    pe::PeStats peTotals;
};

/** Serial reference V-cycle solver (same parameters). */
MultigridResult multigridSerial(const MultigridConfig &cfg,
                                const std::vector<double> &rhs);

/** Run the parallel solver on @p num_pes PEs of a fresh machine. */
MultigridResult multigridParallel(core::Machine &machine,
                                  std::uint32_t num_pes,
                                  const MultigridConfig &cfg,
                                  const std::vector<double> &rhs);

/** Grid side length at @p level. */
std::size_t multigridSide(unsigned level);

/** A smooth deterministic right-hand side on the (2^level+1)^2 grid. */
std::vector<double> multigridRhs(unsigned level);

/** Max-norm residual of -lap(u) = f on an n x n grid of spacing h. */
double poissonResidual(const std::vector<double> &u,
                       const std::vector<double> &f, std::size_t n);

} // namespace ultra::apps

#endif // ULTRA_APPS_MULTIGRID_H
