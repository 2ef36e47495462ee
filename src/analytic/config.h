/**
 * @file
 * Network configuration parameters (section 4.1 of the paper).
 *
 * A configuration is characterized by three parameters:
 *   k -- the degree of each switch (k x k),
 *   m -- the time-multiplexing factor: switch cycles needed to input one
 *        message,
 *   d -- the number of identical copies of the network.
 *
 * The chip-bandwidth constraint bounds k/m; the paper assumes the
 * bandwidth constant B = k/m equals 1 in its comparisons, i.e. m = k.
 * Cost is proportional to the number of switches: an n-port network
 * needs (n lg n)/(k lg k) k x k switches per copy, so the paper's cost
 * factor is C = d / (k lg k).
 */

#ifndef ULTRA_ANALYTIC_CONFIG_H
#define ULTRA_ANALYTIC_CONFIG_H

#include <cstdint>

#include "common/types.h"

namespace ultra::analytic
{

/** Parameters of one candidate Omega-network configuration. */
struct NetworkConfig
{
    /** Ports on each side (number of PEs = number of MMs). */
    std::uint64_t n = 4096;
    /** Switch degree (k x k switches). */
    unsigned k = 2;
    /** Time-multiplexing factor: cycles to input one full message. */
    unsigned m = 2;
    /** Number of identical network copies. */
    unsigned d = 1;

    /** Stages in each copy: log_k(n). */
    unsigned stages() const { return logBase(n, k); }

    /** Switches in each copy: (n / k) * stages. */
    std::uint64_t switchesPerCopy() const { return (n / k) * stages(); }

    /** Total switches across all copies. */
    std::uint64_t totalSwitches() const { return switchesPerCopy() * d; }

    /** Paper's cost factor C = d / (k lg k); cost = C * n * lg n. */
    double costFactor() const;

    /** Total cost in units of (2x2-switch equivalents) = C * n lg n. */
    double cost() const;

    /**
     * Per-PE message capacity: a PE can inject at most 1/m messages per
     * cycle into each copy, so d/m total ("global bandwidth... is indeed
     * proportional to the number of PEs").
     */
    double capacity() const
    {
        return static_cast<double>(d) / static_cast<double>(m);
    }

    /** True when n is a power of k and k is a power of two. */
    bool valid() const;
};

} // namespace ultra::analytic

#endif // ULTRA_ANALYTIC_CONFIG_H
