/**
 * @file
 * The live inspection engine (ultra::inspect).
 *
 * An Inspector joins a socket transport (InspectServer) to a running
 * simulation.  Its single entry point during a run is
 * atCycleBoundary(now), called from the simulation thread at every
 * cycle boundary -- via the cycle hook that core::Observed gives both
 * core::Machine and sweep::NetExperiment.  At that fence the previous
 * cycle is fully committed, so everything the Inspector reads (switch
 * queues, wait buffers, memory words, live statistics) is consistent,
 * and blocking there pauses the simulation without tearing any state.
 *
 * Everything except poke is read-only, so an attached, paused,
 * inspected and resumed run produces byte-identical output to an
 * unattached one (pinned by inspect_test and the golden suite).  poke
 * deliberately steers the run and is documented as breaking that
 * identity.
 *
 * Liveness rules: a run started with start_paused waits at cycle 0 for
 * a client to attach and resume (so short runs cannot finish before
 * the attach); a client that disconnects while the simulation is
 * paused -- or that leaves watchpoints armed -- auto-resumes the run
 * and disarms everything, so a vanished client never wedges the
 * simulation.  Watchpoints are one-shot: a hit emits an event, pauses
 * the run, and disarms the watchpoint (re-arm to continue hunting).
 */

#ifndef ULTRA_INSPECT_INSPECTOR_H
#define ULTRA_INSPECT_INSPECTOR_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "inspect/protocol.h"
#include "inspect/server.h"

namespace ultra::mem
{
class AddressHash;
class MemorySystem;
} // namespace ultra::mem

namespace ultra::net
{
class Network;
} // namespace ultra::net

namespace ultra::obs
{
class LatencyObservatory;
class Registry;
} // namespace ultra::obs

namespace ultra::prof
{
class Profiler;
} // namespace ultra::prof

namespace ultra::inspect
{

/** The simulation components an Inspector exposes.  Only the network
 *  is required; absent targets make the matching commands report a
 *  clean error instead of data. */
struct Targets
{
    const net::Network *network = nullptr;
    mem::MemorySystem *memory = nullptr;      //!< mem / poke
    const mem::AddressHash *hash = nullptr;   //!< vaddr translation
    const obs::Registry *registry = nullptr;  //!< stats, stat watches
    const obs::LatencyObservatory *latency = nullptr; //!< heatmap
    const prof::Profiler *prof = nullptr;     //!< wall-clock profiler
};

/** Protocol engine; all methods run on the simulation thread. */
class Inspector
{
  public:
    /** @param start_paused Hold the run at its first cycle boundary
     *  until a client attaches and resumes (the --inspect default). */
    Inspector(InspectServer &server, Targets targets, bool start_paused);

    Inspector(const Inspector &) = delete;
    Inspector &operator=(const Inspector &) = delete;

    /**
     * Provide the live model-drift probe backing {"cmd":"watch",
     * "drift":e} (e.g. analytic::transitDrift against the current
     * round-trip mean).  Deliberately a closure and not a registry
     * stat: registering extra stats would change --stats-json output
     * and break the attached-equals-unattached guarantee.
     */
    void setDriftProbe(std::function<double()> fn)
    {
        driftFn_ = std::move(fn);
    }

    /**
     * The pause fence.  Call at every cycle boundary: evaluates
     * watchpoints, completes pending steps, serves the commands that
     * have arrived (every kSocketCheckPeriod cycles), and blocks while
     * the run is paused.
     */
    void atCycleBoundary(Cycle now);

    /**
     * Call once when the run is over ( @p completed false = cycle
     * budget exhausted).  Emits the "finished" event and keeps serving
     * read-only commands until the client detaches or disconnects;
     * returns immediately when no client is attached.
     */
    void finishRun(Cycle now, bool completed);

    /** A poke command was executed (output identity waived). */
    bool pokeUsed() const { return pokeUsed_; }

  private:
    /** Cycles between socket checks while the run is going.  A check
     *  (hang-ups, then lines) makes two nonblocking poll(2) calls of
     *  about 290 ns each on a 4-core VM, against 3.3-4.2 us per
     *  simulated TRED2 P=64 cycle: checking every cycle would slow an
     *  inspected run by about 8-15%.  Steps, watchpoints and commands
     *  to a paused run stay exact; only a command sent to a running
     *  simulation lands up to this many cycles late. */
    static constexpr Cycle kSocketCheckPeriod = 64;

    struct Armed
    {
        std::uint64_t id;
        WatchSpec spec;
    };

    /** Evaluate @p spec at @p now; @p observed gets the probed value. */
    bool fires(const WatchSpec &spec, Cycle now, double &observed);

    /** Parse + execute one request line, sending the reply. */
    void handleLine(const std::string &line, Cycle now);

    /** Execute a parsed command; returns the reply line. */
    std::string execute(const Command &cmd, Cycle now);

    std::string executeSwitch(const Command &cmd);
    std::string executeMni(const Command &cmd);
    std::string executeMem(const Command &cmd);
    std::string executeStats(const Command &cmd, Cycle now);
    std::string executeWatch(const Command &cmd);
    std::string statusJson(Cycle now) const;

    /** The attached client vanished: disarm and resume. */
    void clientGone();

    InspectServer &server_;
    Targets targets_;
    std::function<double()> driftFn_;
    /** Host-clock stamp at construction; status replies report wall
     *  seconds and cycles/sec from it.  Read through the profiler's
     *  sanctioned clock (UL-DET-007) -- the wall section describes the
     *  host run, never the simulation, so byte-identity is untouched. */
    std::uint64_t startNs_;

    bool paused_;
    Cycle stepTarget_ = kNeverCycle;
    bool finished_ = false;
    bool detached_ = false;
    bool pokeUsed_ = false;

    std::vector<Armed> armed_;
    std::uint64_t nextWatchId_ = 1;
};

} // namespace ultra::inspect

#endif // ULTRA_INSPECT_INSPECTOR_H
