/**
 * @file
 * The assembled NYU Ultracomputer (Figure 1).
 *
 * A Machine owns N processing elements, their PNIs, d copies of the
 * combining Omega network, the MNIs, and N memory modules.  Parallel
 * programs are Task coroutines launched on individual PEs; run() steps
 * PEs, PNIs and the network cycle by cycle until every launched program
 * finishes.
 *
 * The machine appears to the programmer as a paracomputer: a flat
 * shared address space (virtual addresses, hashed across the modules
 * per section 3.1.4) accessed by load / store / fetch-and-add and the
 * other fetch-and-phi special cases.
 */

#ifndef ULTRA_CORE_MACHINE_H
#define ULTRA_CORE_MACHINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "prof/profiler.h"
#include "pe/pe.h"
#include "pe/task.h"

namespace ultra::obs
{
class EventTrace;
} // namespace ultra::obs

namespace ultra::core
{

/** Whole-machine configuration. */
struct MachineConfig
{
    net::NetSimConfig net;   //!< ports, switches, combining, queues
    net::PniConfig pni;      //!< outstanding-request policy
    pe::PeConfig pe;         //!< instruction timing
    /** Words of central memory per module. */
    std::size_t wordsPerModule = 1 << 16;
    /** Hash virtual addresses across modules (section 3.1.4). */
    bool hashAddresses = true;

    /** The paper's Table-1 machine: 4096 ports, six stages of 4x4
     *  switches, 15-packet queues, PE instr = MM access = 2 cycles. */
    static MachineConfig paperTable1();

    /** A small machine for tests and examples. */
    static MachineConfig small(std::uint32_t ports = 64, unsigned k = 2);
};

/** The simulated parallel machine. */
class Machine
{
  public:
    /**
     * A parallel program body: receives the PE it runs on.  The machine
     * keeps the callable alive until the PE is relaunched, so coroutine
     * lambdas with captures are safe to pass directly.
     */
    using ProgramFn = std::function<pe::Task(pe::Pe &)>;

    explicit Machine(const MachineConfig &cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    std::uint32_t numPes() const { return cfg_.net.numPorts; }

    /** Launch @p program on PE @p pe (replacing any finished task). */
    void launch(PEId pe, ProgramFn program);

    /**
     * Add a further hardware-multiprogrammed context to PE @p pe
     * (section 3.5): the new program shares the PE's instruction
     * pipeline with the one(s) already launched and runs whenever they
     * block on memory.
     */
    void launchExtra(PEId pe, ProgramFn program);

    /** Launch @p program on PEs [0, count). */
    void launchAll(std::uint32_t count, const ProgramFn &program);

    /**
     * Run until every launched program finishes or @p max_cycles pass.
     * Either way the run ends at a cycle boundary with observers
     * flushed: blocked contexts' waiting time is credited (see
     * Pe::flushWaits) and the sampler emits a final row, so a timed-out
     * run's stats, samples, and traces cover every simulated cycle.
     * @return true when all programs finished.
     */
    bool run(Cycle max_cycles = 50'000'000);

    /**
     * Install a hook called at the top of every run() iteration -- at
     * the cycle boundary, after the previous cycle's network tick and
     * before the next PE step, when no mid-tick state exists.
     * This is the pause fence of the live inspection protocol
     * (ultra::inspect): the hook may block (pausing the simulation) and
     * may read any machine state, but as long as it does not *write*
     * simulation state the run is byte-identical to an unhooked one.
     * Pass nullptr to remove.
     */
    void setCycleHook(std::function<void(Cycle)> hook)
    {
        cycleHook_ = std::move(hook);
    }

    Cycle now() const { return network_.now(); }

    // --- shared-memory setup and inspection (functional, no timing) ---

    /** Allocate @p words consecutive virtual words of shared memory. */
    Addr allocShared(std::size_t words, std::string name = "");

    /** Read a shared word directly (debug / verification). */
    Word peek(Addr vaddr) const;

    /** Write a shared word directly (initialization). */
    void poke(Addr vaddr, Word value);

    // --- component access ---------------------------------------------

    mem::MemorySystem &memory() { return memory_; }
    const mem::AddressHash &addressHash() const { return hash_; }
    net::Network &network() { return network_; }
    net::PniArray &pni() { return pni_; }
    pe::Pe &peAt(PEId pe) { return *pes_[pe]; }

    /** Sum of all PEs' counters (Table-1 aggregation). */
    pe::PeStats aggregatePeStats() const;

    /**
     * Consolidated human-readable run report: PE instruction mix,
     * idle fractions, network combining and latency statistics, and
     * memory-module load balance.  Every number is pulled from the
     * stats registry, so this and statsJson() always agree.
     */
    std::string statsReport() const;

    // --- observability (ultra::obs) -----------------------------------

    /** The machine-wide stats registry ("net.*", "pni.*", "mem.*",
     *  "pe.*", "machine.*"); populated during construction. */
    obs::Registry &registry() { return registry_; }
    const obs::Registry &registry() const { return registry_; }

    /** The time-series sampler ticked by run(); empty until
     *  enableSampling() is called. */
    obs::Sampler &sampler() { return sampler_; }
    const obs::Sampler &sampler() const { return sampler_; }

    /**
     * Sample key occupancy gauges (per-stage ToMM queue fill, wait
     * buffers and combines, PNI outstanding requests, PE idle cycles)
     * every @p every cycles during run().  Pass 0 to disable.
     */
    void enableSampling(Cycle every);

    /** Machine-readable JSON dump of every registered statistic. */
    std::string statsJson() const;

    /** As statsJson(), with explicit key-order / layout control. */
    std::string statsJson(const obs::DumpOptions &opts) const;

    /**
     * Attach a packet-lifecycle latency observatory to the network and
     * register its statistics under "lat.".  Call while the network is
     * quiescent (before run(), or after a completed one plus
     * resetStats); idempotent.  Opt-in: an unenabled machine's stats
     * output is byte-identical to pre-observatory builds.
     */
    void enableLatency();
    bool latencyEnabled() const { return latency_ != nullptr; }

    /** The observatory, or nullptr until enableLatency(). */
    obs::LatencyObservatory *latency() { return latency_.get(); }
    const obs::LatencyObservatory *latency() const
    {
        return latency_.get();
    }

    /**
     * The full latency report as JSON (see --latency-json): the
     * observatory summary plus the merged distribution of per-context
     * PE memory-wait spans.  "{}" until enableLatency().
     */
    std::string latencyJson() const;

    /**
     * Attach a wall-clock self-profiler (see src/prof): per-phase lap
     * timers around the run() loop and the network tick.  Call before
     * run(); idempotent.  Opt-in: profiling
     * reads the host clock but writes only to its own report channel,
     * so an unprofiled run (and the simulation content of a profiled
     * one) stays byte-identical.
     */
    void enableProfiling();
    bool profilingEnabled() const { return prof_ != nullptr; }

    /** The profiler, or nullptr until enableProfiling(). */
    prof::Profiler *profiler() { return prof_.get(); }
    const prof::Profiler *profiler() const { return prof_.get(); }

    /**
     * Attach (or detach, with nullptr) a Chrome-trace-event recorder to
     * the network and every PE: message injects, per-stage hops,
     * combines, decombines, MM service, reply deliveries and
     * per-context memory waits all land on it.  When a profiler is also
     * enabled, run() rides periodic prof counter tracks on the same
     * trace (phase seconds) so wall-clock cost lines up
     * with simulated activity in the viewer.
     */
    void attachEventTrace(obs::EventTrace *trace);

    const MachineConfig &config() const { return cfg_; }

  private:
    void registerMachineStats();
    void flushObservers();

    MachineConfig cfg_;
    mem::MemorySystem memory_;
    mem::AddressHash hash_;
    net::Network network_;
    net::PniArray pni_;
    obs::Registry registry_;
    obs::Sampler sampler_;
    /** Destroyed before network_ (declared later); safe because the
     *  network emits no stamps during destruction. */
    std::unique_ptr<obs::LatencyObservatory> latency_;
    /** Wall-clock self-profiler; null unless enableProfiling(). */
    std::unique_ptr<prof::Profiler> prof_;
    /** Trace last attached via attachEventTrace() (prof counters). */
    obs::EventTrace *eventTrace_ = nullptr;
    Cycle samplePeriod_ = 0;
    Cycle lastSampleAt_ = static_cast<Cycle>(-1);
    /** Cycle-boundary yield point (live inspection pause fence). */
    std::function<void(Cycle)> cycleHook_;
    std::vector<std::unique_ptr<pe::Pe>> pes_;
    /** Keeps each PE's program callables (and thus any coroutine-lambda
     *  closures) alive while its tasks run; one entry per context. */
    std::vector<std::vector<std::unique_ptr<ProgramFn>>> programs_;
    std::vector<PEId> launched_;
    Addr nextShared_ = 0;
    std::vector<std::pair<std::string, Addr>> symbols_;
};

} // namespace ultra::core

#endif // ULTRA_CORE_MACHINE_H
