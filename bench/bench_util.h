/**
 * @file
 * Shared helpers for the reproduction benches: the synthetic-traffic
 * rig (net::TrafficRig, re-exported) and consistent table output.
 */

#ifndef ULTRA_BENCH_BENCH_UTIL_H
#define ULTRA_BENCH_BENCH_UTIL_H

#include <string>

#include "common/table.h"
#include "net/traffic.h"

namespace ultra::bench
{

/** The rig lives with the traffic generator (net/traffic.h), where
 *  `ultrasim net` builds on it too; benches name it bench::TrafficRig. */
using net::TrafficRig;

/** "12.3" or "inf". */
inline std::string
fmtOrInf(double x, int digits = 1)
{
    if (!(x < 1e30))
        return "inf";
    return TextTable::fmt(x, digits);
}

} // namespace ultra::bench

#endif // ULTRA_BENCH_BENCH_UTIL_H
