/**
 * @file
 * The observers shared by both simulated runs (ultra::core).
 *
 * The paper studies its machine two ways: the network alone under
 * synthetic traffic (section 4; sweep::NetExperiment, `ultrasim net`)
 * and whole programs on PEs (section 5; Machine, `ultrasim app`).  Both
 * derive from Observed, which holds the stats registry, sampler,
 * latency observatory, profiler, event trace and cycle hook once, and
 * call its protected cycle steps from their loops.  Every observer is
 * opt-in and byte-neutral: an observed run dumps the same stats as a
 * bare one.
 */

#ifndef ULTRA_CORE_OBSERVED_H
#define ULTRA_CORE_OBSERVED_H

#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "prof/profiler.h"

namespace ultra::net
{
class Network;
} // namespace ultra::net

namespace ultra::obs
{
class EventTrace;
} // namespace ultra::obs

namespace ultra::core
{

/** Observers of one simulated run; see the file comment. */
class Observed
{
  public:
    /** The stats registry ("net.*", "pni.*", "mem.*" and the run's
     *  own keys), populated by the run's constructor. */
    obs::Registry &registry() { return registry_; }
    const obs::Registry &registry() const { return registry_; }

    /** The time-series sampler; empty until enableSampling(). */
    obs::Sampler &sampler() { return sampler_; }
    const obs::Sampler &sampler() const { return sampler_; }

    /**
     * Sample per-stage ToMM queue fill, wait buffers and combines, PNI
     * outstanding requests and the run's own gauge every @p every
     * cycles, plus a final row at the run's last cycle.  0 disables.
     */
    void enableSampling(Cycle every);

    /** Machine-readable JSON dump of every registered statistic. */
    std::string statsJson() const;

    /** As statsJson(), with explicit key-order / layout control. */
    std::string statsJson(const obs::DumpOptions &opts) const;

    /**
     * Attach a packet-lifecycle latency observatory to the network and
     * register its statistics under "lat.".  Call while the network is
     * quiescent (before the run, or after a completed one plus
     * resetStats); idempotent.
     */
    virtual void enableLatency();
    bool latencyEnabled() const { return latency_ != nullptr; }

    /** The observatory, or nullptr until enableLatency(). */
    obs::LatencyObservatory *latency() { return latency_.get(); }
    const obs::LatencyObservatory *latency() const
    {
        return latency_.get();
    }

    /**
     * Attach a wall-clock self-profiler (see src/prof): per-phase lap
     * timers around the run loop and the network tick.  Call before
     * the run; idempotent.  It writes only to its own report.
     */
    void enableProfiling();
    bool profilingEnabled() const { return prof_ != nullptr; }

    /** The profiler, or nullptr until enableProfiling(). */
    prof::Profiler *profiler() { return prof_.get(); }
    const prof::Profiler *profiler() const { return prof_.get(); }

    /**
     * Attach (or detach, with nullptr) a Chrome-trace-event recorder to
     * the network; a run with more traced parts tags them too.  With a
     * profiler enabled, prof counter tracks (phase seconds) ride on the
     * same trace so wall-clock cost lines up with simulated activity.
     */
    virtual void attachEventTrace(obs::EventTrace *trace);

    /**
     * Install a hook called at every cycle boundary, after the previous
     * cycle's network tick, when no mid-tick state exists.  This is the
     * pause fence of the live inspection protocol (ultra::inspect): the
     * hook may block and read any state; as long as it writes none, the
     * run is byte-identical to an unhooked one.  nullptr removes it.
     */
    void setCycleHook(std::function<void(Cycle)> hook)
    {
        cycleHook_ = std::move(hook);
    }

  protected:
    /** Observe @p network (only stored here, so the run may pass a
     *  member it has yet to construct); @p own_column is the run's own
     *  sampled gauge. */
    Observed(net::Network &network, std::string own_column)
        : network_(network), ownColumn_(std::move(own_column))
    {}
    ~Observed() = default;

    // -- the run loop's observer steps, in cycle order --------------
    /** Start the profiler's run clock and lap clock. */
    void beginRun();

    /** Top of a cycle: the cycle hook, then the Hook lap. */
    void
    cycleStart(Cycle now)
    {
        if (cycleHook_)
            cycleHook_(now);
        lap(prof::Phase::Hook);
    }

    /** Charge the wall time since the previous stamp to @p p; each
     *  boundary stamps once, so the phases tile the loop's wall. */
    void
    lap(prof::Phase p)
    {
        if (prof_ == nullptr)
            return;
        const std::uint64_t next = prof::Profiler::nowNs();
        prof_->phaseAdd(p, next - lapMark_);
        lapMark_ = next;
    }

    /** Tick the network, which laps its own sub-phases on this lap
     *  chain, then sample and flush prof counters. */
    void tickNetwork();

    /** End a run at @p now: the final sample row, the run clock. */
    void endRun(Cycle now);

  private:
    /** Simulated cycles between prof counter rows on an event trace:
     *  frequent enough to see phase-cost drift in the viewer, rare
     *  enough to stay invisible in the run's wall clock. */
    static constexpr Cycle kProfCounterPeriod = 64;

    net::Network &network_;
    std::string ownColumn_;
    obs::Registry registry_;
    obs::Sampler sampler_;
    std::unique_ptr<obs::LatencyObservatory> latency_;
    /** Wall-clock self-profiler; null unless enableProfiling(). */
    std::unique_ptr<prof::Profiler> prof_;
    /** Trace last attached via attachEventTrace() (prof counters). */
    obs::EventTrace *eventTrace_ = nullptr;
    Cycle samplePeriod_ = 0;
    Cycle lastSampleAt_ = static_cast<Cycle>(-1);
    /** Cycle-boundary yield point (live inspection pause fence). */
    std::function<void(Cycle)> cycleHook_;
    /** The profiler's lap clock: the previous phase boundary. */
    std::uint64_t lapMark_ = 0;
};

} // namespace ultra::core

#endif // ULTRA_CORE_OBSERVED_H
