#include "sweep/net_run.h"

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
        tickNetwork();
    }
}

double
NetExperiment::offeredLoad() const
{
    const Cycle elapsed = rig_.network.now() - statsResetAt_;
    return static_cast<double>(rig_.network.stats().injected) /
           static_cast<double>(elapsed) / spec_.net.numPorts;
}

double
NetExperiment::liveDrift() const
{
    const auto &stats = rig_.network.stats();
    if (stats.oneWayTransit.count() == 0)
        return 0.0;
    return analytic::transitDrift(acfg_, offeredLoad(),
                                  stats.oneWayTransit.mean());
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
    // the model's prediction at the measured accepted load, as
    // liveDrift() does.  Non-applicable configurations still publish
    // their numbers with model.applicable = 0.
    model_ = std::make_unique<obs::ModelCrossCheck>(
        acfg_, offeredLoad(), rig_.network.stats().oneWayTransit.mean(),
        applicable_, spec_.driftTolerance);
    model_->registerStats(registry(), "model");
    modelOk_ = model_->check();
}

} // namespace ultra::sweep
