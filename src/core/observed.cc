#include "core/observed.h"

#include "net/network.h"
#include "obs/event_trace.h"

namespace ultra::core
{

void
Observed::enableSampling(Cycle every)
{
    samplePeriod_ = every;
    if (every == 0 || sampler_.numColumns() > 0)
        return;
    for (unsigned s = 0; s < network_.topology().stages(); ++s) {
        const std::string stage = "net.stage" + std::to_string(s) + ".";
        sampler_.addRegistryColumn(registry_, stage + "tomm_pkts");
        sampler_.addRegistryColumn(registry_, stage + "wb_entries");
        sampler_.addRegistryColumn(registry_, stage + "combines");
    }
    sampler_.addRegistryColumn(registry_, "pni.outstanding");
    sampler_.addRegistryColumn(registry_, ownColumn_);
}

std::string
Observed::statsJson() const
{
    return registry_.jsonDump(network_.now());
}

std::string
Observed::statsJson(const obs::DumpOptions &opts) const
{
    return registry_.jsonDump(network_.now(), opts);
}

void
Observed::enableLatency()
{
    if (latency_)
        return;
    obs::LatencyShape shape;
    shape.stages = network_.topology().stages();
    shape.switchesPerStage = network_.topology().switchesPerStage();
    latency_ = std::make_unique<obs::LatencyObservatory>(shape);
    network_.setLatencyObservatory(latency_.get());
    latency_->registerStats(registry_, "lat");
}

void
Observed::enableProfiling()
{
    if (prof_)
        return;
    prof_ = std::make_unique<prof::Profiler>();
    network_.setProfiler(prof_.get());
}

void
Observed::attachEventTrace(obs::EventTrace *trace)
{
    eventTrace_ = trace;
    network_.setEventTrace(trace);
}

void
Observed::beginRun()
{
    if (prof_ == nullptr)
        return;
    lapMark_ = prof::Profiler::nowNs();
    prof_->runBegin(lapMark_);
}

void
Observed::tickNetwork()
{
    network_.tick(lapMark_);
    const Cycle now = network_.now();
    if (samplePeriod_ != 0 && now % samplePeriod_ == 0) {
        sampler_.sample(now);
        lastSampleAt_ = now;
    }
    lap(prof::Phase::Sampler);
    if (prof_ != nullptr && eventTrace_ != nullptr &&
        now % kProfCounterPeriod == 0)
        prof_->flushCounters(*eventTrace_, now);
}

void
Observed::endRun(Cycle now)
{
    if (samplePeriod_ != 0 && sampler_.numColumns() > 0 &&
        lastSampleAt_ != now) {
        sampler_.sample(now);
        lastSampleAt_ = now;
    }
    lap(prof::Phase::Sampler);
    if (prof_ != nullptr)
        prof_->runEnd(now, lapMark_);
}

} // namespace ultra::core
