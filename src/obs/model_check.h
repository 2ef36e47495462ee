/**
 * @file
 * Continuous Kruskal-Snir cross-check: compare a run's measured
 * one-way transit against the analytic prediction and surface the
 * drift as model.* statistics plus a visible warning when the two
 * diverge beyond tolerance.
 *
 * The comparison is only meaningful when the simulated configuration
 * matches the model's assumptions (uniform packet sizing, no
 * combining, unbounded queues, open-loop uniform traffic below
 * capacity); the caller decides and passes `applicable`.  A
 * non-applicable run still registers its numbers -- model.applicable
 * says how to read them -- but never warns or fails.
 */

#ifndef ULTRA_OBS_MODEL_CHECK_H
#define ULTRA_OBS_MODEL_CHECK_H

#include <string>

#include "analytic/config.h"
#include "analytic/drift.h"

namespace ultra::obs
{

class Registry;

/** The outcome of one sim-vs-model comparison. */
struct ModelReport
{
    analytic::NetworkConfig config;
    double offeredLoad = 0.0;      //!< measured messages/PE/cycle
    double predictedTransit = 0.0; //!< model T(p) + injection hop
    double measuredTransit = 0.0;  //!< sim mean one-way transit
    double drift = 0.0;            //!< (measured - predicted)/predicted
    double tolerance = analytic::kDefaultDriftTolerance;
    bool applicable = false;       //!< config matches model assumptions

    /** Non-applicable runs vacuously pass. */
    bool withinTolerance() const;
};

/** Computes a ModelReport and publishes it. */
class ModelCrossCheck
{
  public:
    ModelCrossCheck(const analytic::NetworkConfig &cfg,
                    double offered_load, double measured_transit,
                    bool applicable,
                    double tolerance = analytic::kDefaultDriftTolerance);

    const ModelReport &report() const { return report_; }

    /**
     * Register model.predicted_transit / measured_transit /
     * offered_load / drift / applicable under "<prefix>.".  Values are
     * captured, so the check may outlive or predecease the registry.
     */
    void registerStats(Registry &registry,
                       const std::string &prefix) const;

    /** Warn (visibly) when applicable and out of tolerance.
     *  @return report().withinTolerance(). */
    bool check() const;

  private:
    ModelReport report_;
};

} // namespace ultra::obs

#endif // ULTRA_OBS_MODEL_CHECK_H
