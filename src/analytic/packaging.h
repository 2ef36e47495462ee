/**
 * @file
 * The machine-packaging cost model of section 3.6.
 *
 * The paper conservatively estimates, for 1990 technology: four chips per
 * PE-PNI pair, nine chips per MM-MNI pair (1 MB of memory from 1 Mbit
 * chips), and two chips per 4-input-4-output switch.  A 4096-PE machine
 * then needs roughly 65,000 chips, only 19% of which are network chips.
 * The network partitions into sqrt(N) input modules and sqrt(N) output
 * modules; with 4x4 two-chip switches the machine is 64 "PE boards" of
 * 352 chips and 64 "MM boards" of 672 chips.
 */

#ifndef ULTRA_ANALYTIC_PACKAGING_H
#define ULTRA_ANALYTIC_PACKAGING_H

#include <cstdint>

namespace ultra::analytic
{

// Per-component chip costs (the paper's 1990 estimates).
inline constexpr unsigned kChipsPerPe = 4;     //!< PE + PNI pair
inline constexpr unsigned kChipsPerMm = 9;     //!< MM + MNI pair (1 MB)
inline constexpr unsigned kChipsPerSwitch = 2; //!< one k x k switch
inline constexpr unsigned kSwitchDegree = 4;   //!< k of the packaged switch

/** Totals for one machine size. */
struct MachinePackage
{
    std::uint64_t numPe = 0;
    std::uint64_t peChips = 0;
    std::uint64_t mmChips = 0;
    std::uint64_t networkChips = 0;
    std::uint64_t numSwitches = 0;

    std::uint64_t peBoards = 0;
    std::uint64_t mmBoards = 0;
    std::uint64_t chipsPerPeBoard = 0;
    std::uint64_t chipsPerMmBoard = 0;

    std::uint64_t totalChips() const
    {
        return peChips + mmChips + networkChips;
    }
    double networkFraction() const
    {
        const std::uint64_t total = totalChips();
        return total ? static_cast<double>(networkChips) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Compute chip and board counts for an @p num_pe machine (a power of two
 * at least kSwitchDegree) under the chip costs above.  Boards follow the
 * paper's sqrt(N)-module layout: each PE board carries sqrt(N) PEs plus
 * the first half of the network stages reachable from them, each MM
 * board carries sqrt(N) MMs plus the last half.
 */
MachinePackage packageMachine(std::uint64_t num_pe);

} // namespace ultra::analytic

#endif // ULTRA_ANALYTIC_PACKAGING_H
