/**
 * @file
 * Parallel TRED2 (section 5): reduce a symmetric matrix to tridiagonal
 * form with Householder transforms on the simulated machine, check the
 * answer against the serial EISPACK-style reference, and report the
 * speedup and Table-1-style statistics.
 *
 *   $ ./tred2_reduction [N] [P]     (defaults: N = 32, P = 8)
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "apps/tred2.h"
#include "core/machine.h"

using namespace ultra;

int
main(int argc, char **argv)
{
    const std::size_t n =
        argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 32;
    const std::uint32_t pes =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 8;

    std::printf("TRED2: reducing a %zux%zu symmetric matrix with %u "
                "PEs\n",
                n, n, pes);
    const auto a = apps::randomSymmetric(n, 2026);

    // Serial reference.
    const apps::Tridiagonal serial = apps::tred2Serial(a, n);

    // Parallel run on a fresh machine.
    core::MachineConfig config = core::MachineConfig::small(
        std::max<std::uint32_t>(16, pes), 2);
    core::Machine machine(config);
    const apps::Tred2Result result =
        apps::tred2Parallel(machine, pes, a, n);

    // Verify.
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        worst = std::max(worst, std::fabs(result.tri.diag[i] -
                                          serial.diag[i]));
    }
    for (std::size_t i = 1; i < n; ++i) {
        worst = std::max(worst,
                         std::fabs(std::fabs(result.tri.offdiag[i]) -
                                   std::fabs(serial.offdiag[i])));
    }
    std::printf("max |parallel - serial| element error: %.2e\n", worst);
    std::printf("trace/Frobenius invariants: %s\n",
                apps::tridiagonalConsistent(a, n, result.tri, 1e-9)
                    ? "preserved"
                    : "VIOLATED");

    // Performance report.
    const auto &t = result.peTotals;
    std::printf("\nsimulated time: %llu cycles\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("waiting time W(P,N): %.0f cycles per PE\n",
                result.waitingTime);
    std::printf("instructions: %llu, shared refs: %llu, "
                "private refs: %llu\n",
                static_cast<unsigned long long>(t.instructions),
                static_cast<unsigned long long>(t.sharedRefs),
                static_cast<unsigned long long>(t.privateRefs));
    std::printf("avg CM access time: %.2f cycles\n",
                machine.pni().stats().accessTime.mean());
    const auto &net_stats = machine.network().stats();
    std::printf("combined requests: %llu of %llu injected (the u/p "
                "broadcasts combine)\n",
                static_cast<unsigned long long>(net_stats.combined),
                static_cast<unsigned long long>(net_stats.injected));
    return 0;
}
