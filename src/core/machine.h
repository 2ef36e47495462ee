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
 * Its observers are the core::Observed ones the network-only
 * sweep::NetExperiment shares.
 */

#ifndef ULTRA_CORE_MACHINE_H
#define ULTRA_CORE_MACHINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/observed.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "pe/pe.h"
#include "pe/task.h"

namespace ultra::core
{

/** Whole-machine configuration. */
struct MachineConfig
{
    net::NetSimConfig net;   //!< ports, switches, combining, queues
    net::PniConfig pni;      //!< outstanding-request policy
    /** Words of central memory per module. */
    std::size_t wordsPerModule = 1 << 16;

    /** The paper's Table-1 machine: 4096 ports, six stages of 4x4
     *  switches, 15-packet queues, PE instr = MM access = 2 cycles. */
    static MachineConfig paperTable1();

    /** A small machine for tests and examples. */
    static MachineConfig small(std::uint32_t ports = 64, unsigned k = 2);
};

/** The simulated parallel machine; its sampled gauge is
 *  "pe.idle_cycles". */
class Machine : public Observed
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
     * The cycle hook runs before the PEs step.
     * @return true when all programs finished.
     */
    bool run(Cycle max_cycles = 50'000'000);

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

    // --- observability (ultra::obs; the rest is core::Observed) -------

    /**
     * As Observed::enableLatency(), and have every PE add its
     * per-context memory-wait spans to one histogram, registered as
     * "lat.pe_wait_hist".
     */
    void enableLatency() override;

    /**
     * Attach (or detach, with nullptr) a Chrome-trace-event recorder to
     * the network and every PE: message injects, per-stage hops,
     * combines, decombines, MM service, reply deliveries and
     * per-context memory waits all land on it.
     */
    void attachEventTrace(obs::EventTrace *trace) override;

    const MachineConfig &config() const { return cfg_; }

  private:
    void registerMachineStats();

    /** Re-read the wake cycle and finished state of the PE in step
     *  slot @p slot after it stepped or completed a request. */
    void refreshSlot(std::uint32_t slot);

    MachineConfig cfg_;
    mem::MemorySystem memory_;
    mem::AddressHash hash_;
    net::Network network_;
    net::PniArray pni_;
    /** Every PE's memory-wait spans, cycles; fed once enableLatency(). */
    Histogram peWaitHist_{2, 128};
    std::vector<std::unique_ptr<pe::Pe>> pes_;
    /** Keeps each PE's program callables (and thus any coroutine-lambda
     *  closures) alive while its tasks run; one entry per context. */
    std::vector<std::vector<std::unique_ptr<ProgramFn>>> programs_;
    std::vector<PEId> launched_;

    // The run loop's work set, rebuilt by each run().
    /** No step slot: the PE was not launched when run() began. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    /** The launched PEs in ascending id order: the step order. */
    std::vector<PEId> stepOrder_;
    /** Per step slot: Pe::wakeAt() as of the PE's last step or
     *  completion, so a cycle steps only the PEs due by it. */
    std::vector<Cycle> wake_;
    /** Per step slot: the PE has finished. */
    std::vector<bool> finished_;
    /** Step slot of each PE id, or kNoSlot. */
    std::vector<std::uint32_t> slotOf_;
    /** Launched PEs not yet finished. */
    std::uint32_t unfinished_ = 0;
    Addr nextShared_ = 0;
    std::vector<std::pair<std::string, Addr>> symbols_;
};

} // namespace ultra::core

#endif // ULTRA_CORE_MACHINE_H
