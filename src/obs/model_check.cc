#include "model_check.h"

#include <cmath>
#include <sstream>

#include "common/log.h"
#include "obs/registry.h"

namespace ultra::obs
{

bool
ModelReport::withinTolerance() const
{
    if (!applicable)
        return true;
    return std::isfinite(drift) && std::fabs(drift) <= tolerance;
}

ModelCrossCheck::ModelCrossCheck(const analytic::NetworkConfig &cfg,
                                 double offered_load,
                                 double measured_transit,
                                 bool applicable, double tolerance)
{
    report_.config = cfg;
    report_.offeredLoad = offered_load;
    report_.predictedTransit =
        analytic::predictedSimTransit(cfg, offered_load);
    report_.measuredTransit = measured_transit;
    report_.drift =
        analytic::transitDrift(cfg, offered_load, measured_transit);
    report_.applicable = applicable;
    report_.tolerance = tolerance;
}

void
ModelCrossCheck::registerStats(Registry &registry,
                               const std::string &prefix) const
{
    const ModelReport r = report_; // value-captured: no lifetime tie
    registry.addScalar(prefix + ".predicted_transit",
                       [r] { return r.predictedTransit; });
    registry.addScalar(prefix + ".measured_transit",
                       [r] { return r.measuredTransit; });
    registry.addScalar(prefix + ".offered_load",
                       [r] { return r.offeredLoad; });
    registry.addScalar(prefix + ".drift",
                       [r] { return r.drift; });
    registry.addScalar(prefix + ".applicable",
                       [r] { return r.applicable ? 1.0 : 0.0; });
}

bool
ModelCrossCheck::check() const
{
    const bool ok = report_.withinTolerance();
    if (!ok) {
        std::ostringstream os;
        os << "model drift out of tolerance: measured transit "
           << report_.measuredTransit << " vs predicted "
           << report_.predictedTransit << " at p = "
           << report_.offeredLoad << " (drift "
           << report_.drift * 100.0 << "%, tolerance "
           << report_.tolerance * 100.0 << "%)";
        warn(os.str());
    }
    return ok;
}

} // namespace ultra::obs
