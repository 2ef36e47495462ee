/**
 * @file
 * Serialization-principle verifier: a small stateless model checker
 * that runs the simulator's own core::coord coroutines.
 *
 * The paper's central correctness claim is the *serialization
 * principle* (section 2.2): "the effect of simultaneous actions by the
 * PEs is as if the actions occurred in some (unspecified) serial
 * order".  This harness makes the claim checkable for the algorithms
 * the applications run: the appendix's TIR/TDR parallel queue, the
 * readers-writers solution, the sense-reversing barrier and
 * fetch-and-add itself.  The coord templates are instantiated on a
 * check-side Port instead of pe::Pe; each process is a driver
 * coroutine on 2-4 PE paracomputer memory, the explorer enumerates
 * every interleaving of their memory actions, and each outcome is
 * judged -- by a linearizability check against a sequential
 * specification, or by a state invariant such as reader/writer mutual
 * exclusion.
 *
 * The port.  load/store/fetchAdd record the pending action and suspend
 * the process; one explorer step runs that action atomically on the
 * Run's memory, then resumes the process until its next action.  Each
 * step thus touches exactly one cell -- the paracomputer's
 * granularity -- and its footprint (the cell, and whether it writes)
 * comes from the pending action.  compute() costs nothing and does not
 * suspend.  Driver code between awaits (ghost bookkeeping: the
 * history, critical-section occupancy, barrier passes) is atomic with
 * the step that resumed it.
 *
 * Spin waits.  A process is *not enabled* when its pending action is a
 * load of the same cell as its previous action and that cell still
 * holds the value that load returned: re-running it could only take
 * the process around the same polling loop back to the same state.
 * A step after which its process is so disabled was a failed poll: it
 * changed nothing but what the port remembers, so the search does not
 * branch on it and explores the state's other steps after it.  So busy
 * loops add no interleavings, and a state where no process can make
 * any other move but not all have finished is reported as a deadlock.
 * Both rules hold only while a polling loop carries no iteration
 * counter (nor any other state that changes per round) and no code
 * loads one cell twice in a row outside such a loop: a loop that
 * counts its polls, or straight-line code that re-reads a cell, would
 * be wrongly disabled.  Every coord algorithm meets this.
 *
 * Replay.  Coroutine frames cannot be copied, so the explorer does not
 * snapshot states: it rebuilds a state by replaying its schedule
 * prefix from a fresh initial Run (stateless search, as in VeriSoft).
 * Exhaustive enumeration uses sleep-set partial-order reduction (the
 * DPOR family): once an interleaving starting with step `t` has been
 * explored from a state, sibling explorations may skip `t` until some
 * dependent step wakes it, which prunes schedules that merely commute
 * independent steps.  For configurations beyond exhaustive reach a
 * seeded random-walk fallback samples schedules instead.
 */

#ifndef ULTRA_CHECK_SERIAL_H
#define ULTRA_CHECK_SERIAL_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "pe/task.h"

namespace ultra::check
{

/** A completed operation in the history (for linearizability). */
struct HistOp
{
    unsigned proc = 0;
    int kind = 0;              //!< program-defined op code
    std::int64_t arg = 0;
    std::int64_t result = 0;
    std::uint64_t invokeStep = 0;   //!< global step index at invocation
    std::uint64_t responseStep = 0; //!< global step index at response
};

/** Shared-memory footprint of a process's next atomic action. */
struct Footprint
{
    Addr addr = 0;
    bool write = false; //!< true for stores and fetch-and-adds
};

/**
 * The check-side PE port: one process's view of a Run's memory, with
 * the awaitables the core::coord templates use.
 */
class Port
{
  public:
    auto load(Addr addr) { return Await{*this, {Kind::Load, addr, 0}}; }
    auto
    store(Addr addr, Word value)
    {
        return Await{*this, {Kind::Store, addr, value}};
    }
    auto
    fetchAdd(Addr addr, Word delta)
    {
        return Await{*this, {Kind::FetchAdd, addr, delta}};
    }
    std::suspend_never compute(std::uint64_t) { return {}; }

    /** Start a new operation: invokeStep() reads 0 until its first
     *  action runs. */
    void beginOp() { invokeStep_ = 0; }
    /** Global step of the current operation's first action (0: none
     *  yet). */
    std::uint64_t invokeStep() const { return invokeStep_; }

  private:
    friend class Run;

    enum class Kind : std::uint8_t { Load, Store, FetchAdd };
    struct Action
    {
        Kind kind = Kind::Load;
        Addr addr = 0;
        Word operand = 0;
    };
    struct Await
    {
        Port &port;
        Action action;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            port.pending_ = action;
            port.resume_ = h;
        }
        Word await_resume() const noexcept { return port.result_; }
    };

    Action pending_;
    std::coroutine_handle<> resume_; //!< innermost suspended frame
    Word result_ = 0;                //!< what the latest action returned
    bool lastWasLoad_ = false;
    Addr lastAddr_ = 0;
    std::uint64_t invokeStep_ = 0;
    std::uint64_t lastStep_ = 0; //!< global step of the latest action
};

/**
 * One execution of a program: the shared paracomputer memory, a Port
 * and a driver coroutine per process, and the history.  A program
 * derives from Run to add its ghost state and its judgments.
 */
class Run
{
  public:
    explicit Run(unsigned procs);
    virtual ~Run() = default;
    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    /** Invariant over every reachable state; empty string = holds. */
    virtual std::string checkState() const { return {}; }

    /** Verdict on a terminal state (all processes done). */
    virtual std::string checkOutcome() const { return {}; }

    unsigned numProcs() const { return static_cast<unsigned>(ports_.size()); }
    Port &port(unsigned p) { return ports_[p]; }
    const Port &port(unsigned p) const { return ports_[p]; }

    /** @p n fresh zeroed cells; returns the first one's address. */
    Addr alloc(std::size_t n);

    /** Bind process @p p's driver and run it to its first action. */
    void launch(unsigned p, pe::Task task);

    bool done(unsigned p) const { return tasks_[p].done(); }

    /** Enabled: neither done nor spinning (see the file comment). */
    bool runnable(unsigned p) const;

    /** Footprint of @p p's pending action (@p p not done). */
    Footprint pending(unsigned p) const;

    /** Run @p p's pending action atomically, then resume @p p until
     *  its next one. */
    void step(unsigned p);

    /** Append @p p's completed operation, invoked at its port's
     *  invokeStep() and responding at this step. */
    void record(unsigned p, int kind, Word arg, Word result);

    std::vector<Word> mem;        //!< shared memory cells
    std::vector<HistOp> history;  //!< completed operations, in response order
    std::uint64_t steps = 0;      //!< atomic actions executed so far

  private:
    std::vector<Port> ports_;
    std::vector<pe::Task> tasks_;
};

/** A program under verification. */
struct Program
{
    std::string name;
    /** A fresh Run at the initial state, every driver launched.  The
     *  explorer calls it once per replay, so it must be deterministic. */
    std::function<std::unique_ptr<Run>()> start;
};

/** Exploration limits and switches. */
struct ExploreOptions
{
    std::uint64_t maxStates = 200'000'000;
    bool sleepSets = true; //!< DPOR-style reduction on/off
};

/** Result of an exploration (exhaustive or sampled). */
struct ExploreResult
{
    std::uint64_t statesExplored = 0;
    std::uint64_t schedules = 0;   //!< terminal states reached
    std::uint64_t sleepPruned = 0; //!< branches skipped by reduction
    bool truncated = false;        //!< hit maxStates or the depth cap
    std::vector<std::string> violations;

    bool ok() const { return violations.empty() && !truncated; }
};

/** Exhaustively enumerate interleavings of @p program (with
 *  reduction). */
ExploreResult explore(const Program &program,
                      const ExploreOptions &opts = {});

/**
 * Seeded random-walk fallback: run @p walks complete schedules choosing
 * uniformly among enabled processes.  Invariants and outcomes are
 * checked exactly as in explore(); coverage is sampled, not complete.
 */
ExploreResult randomWalks(const Program &program, std::uint64_t walks,
                          std::uint64_t seed);

/**
 * Linearizability judge (Wing-Gong style): does some permutation of
 * @p history -- consistent with its real-time precedence (op A before
 * op B when A responded before B was invoked) -- replay legally
 * against the sequential specification @p spec?
 *
 * Spec is a copyable value with `bool apply(const HistOp &)` returning
 * whether the op (with its recorded result) is legal next in sequence,
 * mutating the spec state when it is.
 */
template <typename Spec>
bool
linearizable(const std::vector<HistOp> &history, Spec spec)
{
    const std::size_t n = history.size();
    std::vector<char> used(n, 0);

    struct Rec
    {
        const std::vector<HistOp> &hist;
        std::vector<char> &used;

        bool
        minimal(std::size_t i) const
        {
            // i may be linearized next only if no unused op finished
            // before i was invoked.
            for (std::size_t j = 0; j < hist.size(); ++j) {
                if (!used[j] && j != i &&
                    hist[j].responseStep < hist[i].invokeStep) {
                    return false;
                }
            }
            return true;
        }

        bool
        search(const Spec &state, std::size_t placed)
        {
            if (placed == hist.size())
                return true;
            for (std::size_t i = 0; i < hist.size(); ++i) {
                if (used[i] || !minimal(i))
                    continue;
                Spec next = state;
                if (!next.apply(hist[i]))
                    continue;
                used[i] = 1;
                if (search(next, placed + 1))
                    return true;
                used[i] = 0;
            }
            return false;
        }
    };

    Rec rec{history, used};
    return rec.search(spec, 0);
}

} // namespace ultra::check

#endif // ULTRA_CHECK_SERIAL_H
