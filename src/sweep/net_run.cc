#include "sweep/net_run.h"

#include <sstream>

#include "obs/event_trace.h"
#include "obs/json.h"
#include "obs/latency.h"
#include "obs/sampler.h"
#include "prof/profiler.h"

namespace ultra::sweep
{

NetExperiment::NetExperiment(const NetPointSpec &spec) : spec_(spec)
{
    mem::MemoryConfig mcfg;
    mcfg.numModules = spec_.net.numPorts;
    mcfg.wordsPerModule = 1 << 14;
    mcfg.accessTime = spec_.net.mmAccessTime;
    memory_ = std::make_unique<mem::MemorySystem>(mcfg);
    network_ = std::make_unique<net::Network>(spec_.net, *memory_);
    hash_ = std::make_unique<mem::AddressHash>(
        log2Exact(memory_->totalWords()), true);
    pni_ = std::make_unique<net::PniArray>(spec_.pni, *network_, *hash_);
    traffic_ = std::make_unique<net::TrafficGenerator>(spec_.traffic,
                                                       *pni_, *network_);

    network_->registerStats(registry_, "net");
    pni_->registerStats(registry_, "pni");
    memory_->registerStats(registry_, "mem");

    // Attach while the network is still quiescent; the aggregates
    // therefore cover the warmup as well (unlike the registry stats,
    // which are reset after it).
    if (spec_.wantLatency) {
        obs::LatencyShape shape;
        shape.stages = network_->topology().stages();
        shape.switchesPerStage = network_->topology().switchesPerStage();
        shape.mmAccessTime = spec_.net.mmAccessTime;
        latency_ = std::make_unique<obs::LatencyObservatory>(shape);
        network_->setLatencyObservatory(latency_.get());
        latency_->registerStats(registry_, "lat");
    }

    acfg_.n = spec_.net.numPorts;
    acfg_.k = spec_.net.k;
    acfg_.m = spec_.net.m;
    acfg_.d = spec_.net.d;
    applicable_ =
        acfg_.valid() && spec_.net.sizing == net::PacketSizing::Uniform &&
        spec_.net.combinePolicy == net::CombinePolicy::None &&
        !spec_.net.burroughsKill && !spec_.net.idealParacomputer &&
        spec_.net.queueCapacityPackets == 0 &&
        spec_.net.mmPendingCapacityPackets == 0 &&
        spec_.traffic.hotFraction == 0.0 && !spec_.traffic.closedLoop;
}

NetExperiment::~NetExperiment() = default;

void
NetExperiment::run(const Hooks &hooks)
{
    prof::Profiler *const pr = hooks.prof;
    network_->setProfiler(pr);
    if (hooks.trace != nullptr)
        network_->setEventTrace(hooks.trace);

    if (pr != nullptr)
        pr->runBegin();
    // Lap clock for phase attribution; the network laps its own
    // sub-phases, so the tick only re-stamps after it.
    std::uint64_t mark = pr != nullptr ? prof::Profiler::nowNs() : 0;
    const auto lap = [&](prof::Phase p) {
        if (pr == nullptr)
            return;
        const std::uint64_t next = prof::Profiler::nowNs();
        pr->phaseAdd(p, next - mark);
        mark = next;
    };
    // Sampling covers the warmup too, so the series shows queues
    // ramping from cold.
    auto runSampled = [&](Cycle count) {
        for (Cycle c = 0; c < count; ++c) {
            // The pause fence: between ticks nothing is mid-flight, so
            // an inspector may block, dump and watch here.
            if (hooks.atCycle)
                hooks.atCycle(network_->now());
            lap(prof::Phase::Hook);
            traffic_->tick();
            lap(prof::Phase::Inject);
            pni_->tick();
            lap(prof::Phase::Pni);
            network_->tick();
            if (pr != nullptr)
                mark = prof::Profiler::nowNs();
            if (hooks.sampler != nullptr && hooks.sampleEvery != 0 &&
                network_->now() % hooks.sampleEvery == 0) {
                hooks.sampler->sample(network_->now());
            }
            lap(prof::Phase::Sampler);
            if (pr != nullptr && hooks.trace != nullptr &&
                network_->now() % 64 == 0) {
                pr->flushCounters(*hooks.trace, network_->now());
            }
        }
    };
    runSampled(spec_.cycles / 5); // warm up
    network_->resetStats();
    pni_->resetStats();
    statsResetAt_ = network_->now();
    runSampled(spec_.cycles);
    if (pr != nullptr)
        pr->runEnd(network_->now());

    // Compare the measured post-warmup mean one-way transit against
    // the model's prediction at the measured accepted load.
    // Non-applicable configurations still publish their numbers with
    // model.applicable = 0.
    const auto &stats = network_->stats();
    const double offered = static_cast<double>(stats.injected) /
                           static_cast<double>(spec_.cycles) /
                           spec_.net.numPorts;
    model_ = std::make_unique<obs::ModelCrossCheck>(
        acfg_, offered, stats.oneWayTransit.mean(), applicable_,
        spec_.driftTolerance);
    model_->registerStats(registry_, "model");
    modelOk_ = model_->check();
    ran_ = true;
}

std::string
NetExperiment::statsJson(const obs::DumpOptions &opts) const
{
    return registry_.jsonDump(network_->now(), opts);
}

NetRunSummary
NetExperiment::summary() const
{
    NetRunSummary s;
    const auto &stats = network_->stats();
    const double cycles = static_cast<double>(spec_.cycles);
    s.injected = stats.injected;
    s.delivered = stats.delivered;
    s.combined = stats.combined;
    s.killed = stats.killed;
    s.mmServed = stats.mmServed;
    s.offered = static_cast<double>(stats.injected) / cycles /
                spec_.net.numPorts;
    s.opsPerCycle = static_cast<double>(stats.delivered) / cycles;
    s.combinedFraction =
        stats.injected != 0 ? static_cast<double>(stats.combined) /
                                  static_cast<double>(stats.injected)
                            : 0.0;
    s.oneWayMean = stats.oneWayTransit.mean();
    s.oneWayMax = stats.oneWayTransit.max();
    s.roundTripMean = stats.roundTrip.mean();
    s.rtP50 = stats.roundTripHist.percentile(0.5);
    s.rtP95 = stats.roundTripHist.percentile(0.95);
    s.rtP99 = stats.roundTripHist.percentile(0.99);
    s.accessMean = pni_->stats().accessTime.mean();
    s.mmQueueWaitMean = stats.mmQueueWait.mean();
    if (ran_) {
        const obs::ModelReport &mr = model_->report();
        s.modelApplicable = mr.applicable;
        s.modelOk = modelOk_;
        s.predictedTransit = mr.predictedTransit;
        s.measuredTransit = mr.measuredTransit;
        s.drift = mr.drift;
    }
    if (latency_ != nullptr) {
        s.hasLatency = true;
        s.latDelivered = latency_->delivered();
        s.latCombinedDelivered = latency_->combinedDelivered();
        s.latMmCyclesSaved = latency_->mmCyclesSaved();
        s.latViolations = latency_->violations();
        const Histogram &h = latency_->fanInHist();
        if (h.count() > 0) {
            s.fanInP50 = h.percentile(0.5);
            for (std::size_t b = h.numBins(); b-- > 0;) {
                if (h.binCount(b) > 0) {
                    s.fanInMax = b * h.binWidth();
                    break;
                }
            }
        }
    }
    return s;
}

std::string
NetRunSummary::json() const
{
    // Keys sorted (the sweep.v1 byte-determinism contract): a point
    // record's bytes depend only on the simulated outcome.
    std::ostringstream os;
    const auto num = [&os](double x) { obs::writeJsonNumber(os, x); };
    os << "{\"access_mean\": ";
    num(accessMean);
    os << ", \"combined\": " << combined << ", \"combined_fraction\": ";
    num(combinedFraction);
    os << ", \"delivered\": " << delivered << ", \"drift\": ";
    num(drift);
    os << ", \"injected\": " << injected << ", \"killed\": " << killed;
    if (hasLatency) {
        os << ", \"lat\": {\"combined_delivered\": "
           << latCombinedDelivered << ", \"delivered\": " << latDelivered
           << ", \"fanin_max\": " << fanInMax
           << ", \"fanin_p50\": " << fanInP50
           << ", \"mm_cycles_saved\": " << latMmCyclesSaved
           << ", \"violations\": " << latViolations << "}";
    }
    os << ", \"measured_transit\": ";
    num(measuredTransit);
    os << ", \"mm_queue_wait_mean\": ";
    num(mmQueueWaitMean);
    os << ", \"mm_served\": " << mmServed
       << ", \"model_applicable\": " << (modelApplicable ? 1 : 0)
       << ", \"model_within_tolerance\": " << (modelOk ? 1 : 0)
       << ", \"offered\": ";
    num(offered);
    os << ", \"one_way_max\": ";
    num(oneWayMax);
    os << ", \"one_way_mean\": ";
    num(oneWayMean);
    os << ", \"ops_per_cycle\": ";
    num(opsPerCycle);
    os << ", \"predicted_transit\": ";
    num(predictedTransit);
    os << ", \"round_trip_mean\": ";
    num(roundTripMean);
    os << ", \"rt_p50\": " << rtP50 << ", \"rt_p95\": " << rtP95
       << ", \"rt_p99\": " << rtP99 << "}";
    return os.str();
}

} // namespace ultra::sweep
