/**
 * @file
 * The shared synthetic-traffic experiment core (ultra::sweep).
 *
 * `ultrasim net` and the `ultrasweep` worker processes both answer the
 * same question -- "run this network configuration under this workload
 * and dump the stats" -- and the golden byte-identity contract requires
 * both to answer it with the *same bytes*.  NetExperiment holds the
 * warmup/reset/measure sequence and the model cross-check wiring once,
 * so equivalence holds by construction rather than by vigilance.
 *
 * The rig is the benches' net::TrafficRig, and the observers are the
 * core::Observed ones Machine uses too.  The latency observatory is a
 * point parameter (--latency, grid "latency"): it adds the "lat.*"
 * keys.  Every other observer is optional and byte-neutral, so an
 * unobserved sweep worker and a fully-instrumented interactive run
 * produce identical --stats-json output.  That dump is the run's one
 * result: a sweep record embeds it as its metrics, and the model
 * cross-check publishes into it as "model.*".
 */

#ifndef ULTRA_SWEEP_NET_RUN_H
#define ULTRA_SWEEP_NET_RUN_H

#include <memory>

#include "analytic/config.h"
#include "analytic/drift.h"
#include "common/types.h"
#include "core/observed.h"
#include "net/traffic.h"
#include "obs/model_check.h"

namespace ultra::sweep
{

/** One fully-resolved net-mode experiment point: everything that
 *  affects the simulated outcome or its stats dump, nothing that is
 *  host-side observability.  sweep::specFromParams fills it in,
 *  defaults included. */
struct NetPointSpec
{
    net::NetSimConfig net;
    net::TrafficConfig traffic;
    net::PniConfig pni;
    Cycle cycles = 10000;
    bool wantLatency = false;
    double driftTolerance = analytic::kDefaultDriftTolerance;
};

/** One net-mode experiment, construction through stats dump.  Its
 *  sampled gauge is "net.mni_pending_pkts"; sampling covers the warmup
 *  too, so the series shows queues ramping from cold. */
class NetExperiment : public core::Observed
{
  public:
    /** Construct the rig and register its stats; attach the latency
     *  observatory when @p spec asks for it. */
    explicit NetExperiment(const NetPointSpec &spec);

    /** The memory, network, hash, PNIs and traffic under test. */
    net::TrafficRig &rig() { return rig_; }

    /** Whether the Kruskal-Snir model's assumptions hold here. */
    bool modelApplicable() const { return applicable_; }

    /**
     * Signed model drift of the mean one-way transit measured so far,
     * at the load offered since the post-warmup stats reset; 0 before
     * the first transit completes.  At the end of run() it equals
     * model.drift.
     */
    double liveDrift() const;

    /** Warmup (cycles/5), stats reset, measured run, model check. */
    void run();

    // -- post-run results -------------------------------------------
    const obs::ModelCrossCheck &model() const { return *model_; }
    bool modelOk() const { return modelOk_; }

  private:
    /** @p count cycles of injection, PNI issue and network tick. */
    void runCycles(Cycle count);

    /** Requests per PE per cycle injected since statsResetAt_. */
    double offeredLoad() const;

    NetPointSpec spec_;
    net::TrafficRig rig_;
    analytic::NetworkConfig acfg_;
    bool applicable_ = false;
    Cycle statsResetAt_ = 0; //!< cycle of the post-warmup stats reset
    std::unique_ptr<obs::ModelCrossCheck> model_;
    bool modelOk_ = true;
};

} // namespace ultra::sweep

#endif // ULTRA_SWEEP_NET_RUN_H
