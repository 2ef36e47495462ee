/**
 * @file
 * The shared synthetic-traffic experiment core (ultra::sweep).
 *
 * `ultrasim net`, the `ultrasweep` worker processes and the
 * `ultrasim serve` job loop all answer the same question -- "run this
 * network configuration under this workload and dump the stats" -- and
 * the golden byte-identity contract requires all three to answer it
 * with the *same bytes*.  Before this file each entry point would have
 * had to replicate the construction order, the warmup/reset/measure
 * sequence and the model cross-check wiring of `cmdNet` by hand;
 * NetExperiment extracts that sequence once so equivalence holds by
 * construction rather than by vigilance.
 *
 * Construction order (memory, network, hash, PNI, traffic, stats
 * registration, latency observatory) and the run loop (inspector
 * fence, injection, PNI tick, network tick, sampler) are
 * verbatim the historical cmdNet sequence; the observability hooks
 * (inspector, sampler, event trace, profiler) are all optional and all
 * byte-neutral, so a hookless sweep worker and a fully-instrumented
 * interactive run produce identical --stats-json output.
 *
 * WarmRig is the server's "warmed machine configuration" cache entry:
 * a freshly constructed (memory, network) pair for a configuration,
 * built ahead of time because network construction is pure setup cost.
 * A rig is never reused after carrying traffic -- the cache hands out
 * pristine rigs only -- which is what keeps a cache hit byte-identical
 * to a cold build.
 */

#ifndef ULTRA_SWEEP_NET_RUN_H
#define ULTRA_SWEEP_NET_RUN_H

#include <functional>
#include <memory>
#include <string>

#include "analytic/config.h"
#include "analytic/drift.h"
#include "common/types.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "net/traffic.h"
#include "obs/model_check.h"
#include "obs/registry.h"

namespace ultra::obs
{
class EventTrace;
class LatencyObservatory;
class Sampler;
} // namespace ultra::obs

namespace ultra::prof
{
class Profiler;
} // namespace ultra::prof

namespace ultra::sweep
{

/** One fully-resolved net-mode experiment point: everything that
 *  affects the simulated outcome, nothing that is host-side
 *  observability.  Defaults mirror the `ultrasim net` flag defaults. */
struct NetPointSpec
{
    net::NetSimConfig net;
    net::TrafficConfig traffic;
    net::PniConfig pni;
    Cycle cycles = 10000;
    bool wantLatency = false;
    double driftTolerance = analytic::kDefaultDriftTolerance;
};

/**
 * Why @p spec cannot run, or "" when it can: a valid network, rate and
 * hot fraction in [0, 1], at least one measured cycle.  Every entry
 * point (`ultrasim net`, grid points, serve jobs) checks this before
 * building an experiment, so a bad value gets a message instead of
 * reaching an assertion.  Integral parameters are range-checked where
 * they are parsed, before they are narrowed into the spec's fields.
 */
std::string validate(const NetPointSpec &spec);

/** Headline metrics of a finished run, for sweep records and reports;
 *  everything here is derived from simulated state, so the values are
 *  deterministic per point. */
struct NetRunSummary
{
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t combined = 0;
    std::uint64_t killed = 0;
    std::uint64_t mmServed = 0;
    double offered = 0.0;      //!< injected / cycles / ports
    double opsPerCycle = 0.0;  //!< delivered / cycles
    double combinedFraction = 0.0;
    double oneWayMean = 0.0;
    double oneWayMax = 0.0;
    double roundTripMean = 0.0;
    std::uint64_t rtP50 = 0;
    std::uint64_t rtP95 = 0;
    std::uint64_t rtP99 = 0;
    double accessMean = 0.0;
    double mmQueueWaitMean = 0.0;
    bool modelApplicable = false;
    bool modelOk = true;
    double predictedTransit = 0.0;
    double measuredTransit = 0.0;
    double drift = 0.0;
    // Latency-observatory analytics; valid when wantLatency was set.
    bool hasLatency = false;
    std::uint64_t latDelivered = 0;
    std::uint64_t latCombinedDelivered = 0;
    std::uint64_t latMmCyclesSaved = 0;
    std::uint64_t latViolations = 0;
    std::uint64_t fanInP50 = 1;
    std::uint64_t fanInMax = 1;

    /** The summary as a sorted-key JSON object (one line). */
    std::string json() const;
};

/** A pre-built, never-used (memory, network) pair for one network
 *  configuration; see the file comment. */
struct WarmRig
{
    std::unique_ptr<mem::MemorySystem> memory;
    std::unique_ptr<net::Network> network;
};

/** Build a pristine rig for @p cfg (the cache-refill path). */
WarmRig buildWarmRig(const net::NetSimConfig &cfg);

/** Canonical cache key: every field that shapes rig construction. */
std::string netConfigKey(const net::NetSimConfig &cfg);

/** One net-mode experiment, construction through stats dump. */
class NetExperiment
{
  public:
    /** Byte-neutral observability hooks; every field optional. */
    struct Hooks
    {
        /** Inspector pause fence, called between ticks. */
        std::function<void(Cycle)> atCycle;
        obs::Sampler *sampler = nullptr;
        Cycle sampleEvery = 0;
        obs::EventTrace *trace = nullptr;
        prof::Profiler *prof = nullptr;
    };

    /** Construct the rig; @p warm (when its configuration matches) is
     *  adopted instead of building memory + network from scratch. */
    explicit NetExperiment(const NetPointSpec &spec,
                           WarmRig warm = WarmRig{});
    ~NetExperiment();

    NetExperiment(const NetExperiment &) = delete;
    NetExperiment &operator=(const NetExperiment &) = delete;

    // -- pre-run accessors (inspector targets, sampler setup) -------
    net::Network &network() { return *network_; }
    mem::MemorySystem &memory() { return *memory_; }
    mem::AddressHash &addressHash() { return *hash_; }
    net::PniArray &pni() { return *pni_; }
    obs::Registry &registry() { return registry_; }
    obs::LatencyObservatory *latency() { return latency_.get(); }
    const NetPointSpec &spec() const { return spec_; }

    /** Whether the Kruskal-Snir model's assumptions hold here. */
    bool modelApplicable() const { return applicable_; }
    const analytic::NetworkConfig &modelConfig() const { return acfg_; }

    /** Cycle at which post-warmup stats were reset (0 before run). */
    Cycle statsResetAt() const { return statsResetAt_; }

    /** Warmup (cycles/5), stats reset, measured run, model check. */
    void run(const Hooks &hooks);

    // -- post-run results -------------------------------------------
    const obs::ModelCrossCheck &model() const { return *model_; }
    bool modelOk() const { return modelOk_; }
    std::string statsJson(const obs::DumpOptions &opts) const;
    NetRunSummary summary() const;

  private:
    NetPointSpec spec_;
    std::unique_ptr<mem::MemorySystem> memory_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<mem::AddressHash> hash_;
    std::unique_ptr<net::PniArray> pni_;
    std::unique_ptr<net::TrafficGenerator> traffic_;
    obs::Registry registry_;
    std::unique_ptr<obs::LatencyObservatory> latency_;
    analytic::NetworkConfig acfg_;
    bool applicable_ = false;
    Cycle statsResetAt_ = 0;
    std::unique_ptr<obs::ModelCrossCheck> model_;
    bool modelOk_ = true;
    bool ran_ = false;
};

} // namespace ultra::sweep

#endif // ULTRA_SWEEP_NET_RUN_H
