#include "sweep/net_run.h"

#include <sstream>

#include "obs/json.h"

namespace ultra::sweep
{

NetExperiment::NetExperiment(const NetPointSpec &spec)
    : Observed(rig_.network, "net.mni_pending_pkts"), spec_(spec),
      rig_(spec_.net, spec_.traffic, true, spec_.pni)
{
    obs::Registry &reg = registry();
    rig_.network.registerStats(reg, "net");
    rig_.pni.registerStats(reg, "pni");
    rig_.memory.registerStats(reg, "mem");

    // Attach while the network is still quiescent; the aggregates
    // therefore cover the warmup as well (unlike the registry stats,
    // which are reset after it).
    if (spec_.wantLatency)
        enableLatency();

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

void
NetExperiment::runCycles(Cycle count)
{
    for (Cycle c = 0; c < count; ++c) {
        // The pause fence: between ticks nothing is mid-flight, so an
        // inspector may block, dump and watch here.
        cycleStart(rig_.network.now());
        rig_.traffic.tick();
        lap(prof::Phase::Inject);
        rig_.pni.tick();
        lap(prof::Phase::Pni);
        rig_.network.tick();
        networkTicked(rig_.network.now());
    }
}

void
NetExperiment::run()
{
    beginRun();
    runCycles(spec_.cycles / 5); // warm up
    rig_.network.resetStats();
    rig_.pni.resetStats();
    statsResetAt_ = rig_.network.now();
    runCycles(spec_.cycles);
    endRun(rig_.network.now());

    // Compare the measured post-warmup mean one-way transit against
    // the model's prediction at the measured accepted load.
    // Non-applicable configurations still publish their numbers with
    // model.applicable = 0.
    const auto &stats = rig_.network.stats();
    const double offered = static_cast<double>(stats.injected) /
                           static_cast<double>(spec_.cycles) /
                           spec_.net.numPorts;
    model_ = std::make_unique<obs::ModelCrossCheck>(
        acfg_, offered, stats.oneWayTransit.mean(), applicable_,
        spec_.driftTolerance);
    model_->registerStats(registry(), "model");
    modelOk_ = model_->check();
    ran_ = true;
}

NetRunSummary
NetExperiment::summary() const
{
    NetRunSummary s;
    const auto &stats = rig_.network.stats();
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
    s.accessMean = rig_.pni.stats().accessTime.mean();
    s.mmQueueWaitMean = stats.mmQueueWait.mean();
    if (ran_) {
        const obs::ModelReport &mr = model_->report();
        s.modelApplicable = mr.applicable;
        s.modelOk = modelOk_;
        s.predictedTransit = mr.predictedTransit;
        s.measuredTransit = mr.measuredTransit;
        s.drift = mr.drift;
    }
    if (const obs::LatencyObservatory *latency = this->latency()) {
        s.hasLatency = true;
        s.latDelivered = latency->delivered();
        s.latCombinedDelivered = latency->combinedDelivered();
        s.latMmCyclesSaved = latency->mmCyclesSaved();
        s.latViolations = latency->violations();
        const Histogram &h = latency->fanInHist();
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
