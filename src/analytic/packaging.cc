#include "packaging.h"

#include <cmath>

#include "common/log.h"
#include "common/types.h"

namespace ultra::analytic
{

MachinePackage
packageMachine(std::uint64_t num_pe)
{
    ULTRA_ASSERT(isPowerOfTwo(num_pe) && num_pe >= kSwitchDegree,
                 "machine size must be a power of two >= switch degree");
    const unsigned k = kSwitchDegree;
    const unsigned stages = logBase(num_pe, k);

    MachinePackage pkg;
    pkg.numPe = num_pe;
    pkg.peChips = num_pe * kChipsPerPe;
    pkg.mmChips = num_pe * kChipsPerMm;
    pkg.numSwitches = (num_pe / k) * stages;
    pkg.networkChips = pkg.numSwitches * kChipsPerSwitch;

    // Board layout of section 3.6: sqrt(N) input modules and sqrt(N)
    // output modules, each carrying half of the network stages.
    const std::uint64_t root = static_cast<std::uint64_t>(
        std::llround(std::sqrt(static_cast<double>(num_pe))));
    if (root * root == num_pe && stages % 2 == 0) {
        pkg.peBoards = root;
        pkg.mmBoards = root;
        const std::uint64_t switches_per_board =
            (root / k) * (stages / 2);
        pkg.chipsPerPeBoard = root * kChipsPerPe +
                              switches_per_board * kChipsPerSwitch;
        pkg.chipsPerMmBoard = root * kChipsPerMm +
                              switches_per_board * kChipsPerSwitch;
    }
    return pkg;
}

} // namespace ultra::analytic
