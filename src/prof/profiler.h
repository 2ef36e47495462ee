/**
 * @file
 * Wall-clock self-profiler for the simulator (ultra::prof).
 *
 * Every other observability layer measures *simulated* cycles; this one
 * measures where *host* time goes, so a slower run can be attributed to
 * a phase of the cycle loop instead of guessed at.  The profiler is
 * opt-in (a nullable pointer on the components it instruments,
 * one-branch cost when detached) and writes only to its own channel:
 * stats dumps, goldens and the byte-identity contract are untouched
 * whether it is attached or not.
 *
 * The simulation thread stamps the clock at each phase boundary of the
 * cycle loop (PE step, PNI issue, the network's commit/MNI/arrival/
 * departure sub-phases, sampler) on one chain that also starts and
 * stops the run clock, so the phase times tile measured elapsed time;
 * whatever they have not yet charged is reported as overhead.
 *
 * This file (src/prof) is the *only* place in simulation code allowed
 * to read the host clock -- tools/ultralint UL-DET-007 flags raw
 * std::chrono / clock_gettime anywhere else, because a wall-clock read
 * woven into simulation logic is a determinism hazard.  Components
 * time themselves through Profiler::nowNs(), an opaque call.
 */

#ifndef ULTRA_PROF_PROFILER_H
#define ULTRA_PROF_PROFILER_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace ultra::obs
{
class EventTrace;
} // namespace ultra::obs

namespace ultra::prof
{

/** Instrumented phases of one simulated cycle.  Names (phaseName) are
 *  the JSON keys, listed here in their sorted order so the report can
 *  emit them by simple enumeration. */
enum class Phase : unsigned {
    Hook,         //!< inspect pause fence (cycle hook)
    Inject,       //!< net-mode traffic injection
    NetArrival,   //!< switch arrivals (enqueue, combining, fission)
    NetCommit,    //!< reply deliveries due this cycle
    NetMni,       //!< MNI receipt and memory service
    NetSweepFwd,  //!< forward departures
    NetSweepRev,  //!< reverse departures and deferred arrival kills
    PeStep,       //!< PE coroutine stepping
    Pni,          //!< PNI issue/completion
    Sampler,      //!< per-cycle sampler + observer flush
    kCount
};

constexpr unsigned kPhaseCount = static_cast<unsigned>(Phase::kCount);

/** The stable JSON/report name of @p p (e.g. "net.arrival"). */
const char *phaseName(Phase p);

/** Wall-clock self-profiler; see the file comment for the contract. */
class Profiler
{
  public:
    /**
     * The host monotonic clock, in nanoseconds from an arbitrary
     * epoch.  The single sanctioned wall-clock read in simulation
     * code (UL-DET-007); deliberately opaque so callers carry no
     * <chrono> tokens.
     */
    static std::uint64_t nowNs();

    // -- run lifecycle ----------------------------------------------
    /** The run starts at clock stamp @p start_ns and ends at @p end_ns;
     *  the caller passes the first and last stamps of its lap chain, so
     *  the phases tile the elapsed time with no gap at either end. */
    void runBegin(std::uint64_t start_ns);
    void runEnd(std::uint64_t cycles, std::uint64_t end_ns);

    // -- per-phase wall timers --------------------------------------
    void
    phaseAdd(Phase p, std::uint64_t ns)
    {
        phaseNs_[static_cast<unsigned>(p)] += ns;
        ++phaseCalls_[static_cast<unsigned>(p)];
    }

    // -- report -----------------------------------------------------
    /** Seconds from runBegin to runEnd (or to now mid-run). */
    double elapsedSeconds() const;

    /**
     * The full report as schema-versioned JSON ("ultra.prof.v2"),
     * keys sorted at every level so diffs and goldens are stable.
     * Callable mid-run (the live `prof` inspect command) -- elapsed
     * is measured to the call.
     */
    std::string reportJson() const;

    /**
     * Emit cumulative per-phase counter tracks onto @p trace (track
     * "prof", Perfetto 'C' events at simulated-cycle @p now).  Only
     * ever called when a trace is recording *and* profiling is on, so
     * a default --trace-events file is byte-identical with the
     * profiler detached.
     */
    void flushCounters(obs::EventTrace &trace, Cycle now) const;

    // -- accessors (tests, report writers) --------------------------
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t totalPhaseNs() const;

  private:
    std::uint64_t phaseNs_[kPhaseCount] = {};
    std::uint64_t phaseCalls_[kPhaseCount] = {};

    std::uint64_t runStartNs_ = 0;
    std::uint64_t runEndNs_ = 0;
    std::uint64_t cycles_ = 0;
};

} // namespace ultra::prof

#endif // ULTRA_PROF_PROFILER_H
