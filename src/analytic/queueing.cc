#include "queueing.h"

#include <cmath>
#include <limits>

#include "common/log.h"

namespace ultra::analytic
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

double
switchQueueingDelay(unsigned k, unsigned m, double p)
{
    ULTRA_ASSERT(k >= 2, "switch degree k = ", k, " must be >= 2");
    ULTRA_ASSERT(m >= 1, "message length m = ", m, " must be >= 1");
    ULTRA_ASSERT(p >= 0.0, "load p = ", p, " must be >= 0");
    const double md = m;
    const double kd = k;
    if (md * p >= 1.0)
        return kInf;
    return md * md * p * (1.0 - 1.0 / kd) / (2.0 * (1.0 - md * p));
}

double
transitTime(const NetworkConfig &cfg, double p)
{
    ULTRA_ASSERT(cfg.valid(), "invalid network configuration");
    ULTRA_ASSERT(p >= 0.0, "load p = ", p, " must be >= 0");
    const double per_copy = p / static_cast<double>(cfg.d);
    const double queueing = switchQueueingDelay(cfg.k, cfg.m, per_copy);
    if (std::isinf(queueing))
        return kInf;
    const double stages = cfg.stages();
    return stages * (1.0 + queueing) + (cfg.m - 1);
}

double
loadAtTransitTime(const NetworkConfig &cfg, double t_target)
{
    const double t0 = transitTime(cfg, 0.0);
    if (t_target <= t0)
        return 0.0;
    double lo = 0.0;
    double hi = cfg.capacity();
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (transitTime(cfg, mid) < t_target)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

NetworkConfig
cheapestConfiguration(std::uint64_t n, double p, double t_budget,
                      unsigned max_copies)
{
    NetworkConfig best;
    best.n = n;
    best.d = 0; // sentinel: nothing feasible yet
    double best_cost = 0.0;
    double best_t = 0.0;
    for (unsigned k : {2u, 4u, 8u, 16u}) {
        NetworkConfig cand;
        cand.n = n;
        cand.k = k;
        cand.m = k; // B = 1
        for (unsigned d = 1; d <= max_copies; ++d) {
            cand.d = d;
            if (!cand.valid())
                break; // n not a power of this k
            const double t = transitTime(cand, p);
            if (!(t <= t_budget))
                continue;
            const double cost = cand.costFactor();
            const bool better =
                best.d == 0 || cost < best_cost ||
                (cost == best_cost && t < best_t);
            if (better) {
                best = cand;
                best_cost = cost;
                best_t = t;
            }
            break; // more copies of the same k only cost more
        }
    }
    return best;
}

TransitCurve
sweepTransitTime(const NetworkConfig &cfg, double p_max, unsigned steps)
{
    ULTRA_ASSERT(steps >= 1);
    TransitCurve curve;
    curve.config = cfg;
    curve.load.reserve(steps + 1);
    curve.transit.reserve(steps + 1);
    for (unsigned i = 0; i <= steps; ++i) {
        const double p = p_max * static_cast<double>(i) /
                         static_cast<double>(steps);
        curve.load.push_back(p);
        curve.transit.push_back(transitTime(cfg, p));
    }
    return curve;
}

} // namespace ultra::analytic
