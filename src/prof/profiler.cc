#include "prof/profiler.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/event_trace.h"
#include "obs/json.h"

namespace ultra::prof
{

const char *
phaseName(Phase p)
{
    // Sorted order: these are the JSON keys of the "phases" object,
    // emitted by enumeration -- keep the table and the enum sorted.
    switch (p) {
    case Phase::Hook: return "hook";
    case Phase::Inject: return "inject";
    case Phase::NetArrival: return "net.arrival";
    case Phase::NetCommit: return "net.commit";
    case Phase::NetMni: return "net.mni";
    case Phase::NetSweepFwd: return "net.sweep_fwd";
    case Phase::NetSweepRev: return "net.sweep_rev";
    case Phase::PeStep: return "pe.step";
    case Phase::Pni: return "pni";
    case Phase::Sampler: return "sampler";
    case Phase::kCount: break;
    }
    return "?";
}

std::uint64_t
Profiler::nowNs()
{
    // The single sanctioned wall-clock read in simulation code; every
    // instrumented component times itself through this call so no
    // <chrono> token appears outside src/prof (UL-DET-007).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Profiler::runBegin(std::uint64_t start_ns)
{
    runStartNs_ = start_ns;
    runEndNs_ = 0;
}

void
Profiler::runEnd(std::uint64_t cycles, std::uint64_t end_ns)
{
    runEndNs_ = end_ns;
    cycles_ = cycles;
}

std::uint64_t
Profiler::totalPhaseNs() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t ns : phaseNs_)
        sum += ns;
    return sum;
}

double
Profiler::elapsedSeconds() const
{
    if (runStartNs_ == 0)
        return 0.0;
    const std::uint64_t end = runEndNs_ != 0 ? runEndNs_ : nowNs();
    return static_cast<double>(end - runStartNs_) * 1e-9;
}

namespace
{

constexpr double kNsToS = 1e-9;

void
writeNum(std::ostream &os, double x)
{
    obs::writeJsonNumber(os, x);
}

} // namespace

std::string
Profiler::reportJson() const
{
    // Keys sorted at every level (the schema-stability contract; see
    // prof_test).  Top level: attribution < cycles < elapsed_seconds
    // < phases < schema.
    const double elapsed = elapsedSeconds();
    const double coverage =
        static_cast<double>(totalPhaseNs()) * kNsToS /
        (elapsed > 0 ? elapsed : 1.0);

    std::ostringstream os;
    os << "{\"attribution\": {\"coverage\": ";
    writeNum(os, coverage);
    os << ", \"overhead_fraction\": ";
    writeNum(os, std::max(0.0, 1.0 - coverage));
    os << "}";

    os << ", \"cycles\": " << cycles_;
    os << ", \"elapsed_seconds\": ";
    writeNum(os, elapsed);

    os << ", \"phases\": {";
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        if (p > 0)
            os << ", ";
        os << "\"" << phaseName(static_cast<Phase>(p))
           << "\": {\"calls\": " << phaseCalls_[p] << ", \"seconds\": ";
        writeNum(os, static_cast<double>(phaseNs_[p]) * kNsToS);
        os << "}";
    }
    os << "}";

    os << ", \"schema\": \"ultra.prof.v2\"";
    os << "}";
    return os.str();
}

void
Profiler::flushCounters(obs::EventTrace &trace, Cycle now) const
{
    const obs::EventTrace::TrackId track = trace.track("prof");
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        if (phaseNs_[p] == 0)
            continue;
        trace.counter(track, phaseName(static_cast<Phase>(p)), now,
                      static_cast<double>(phaseNs_[p]) * kNsToS);
    }
}

} // namespace ultra::prof
