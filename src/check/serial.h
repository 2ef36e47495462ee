/**
 * @file
 * Serialization-principle verifier: a small model-checking harness for
 * the ultra::rt coordination primitives.
 *
 * The paper's central correctness claim is the *serialization
 * principle* (section 2.2): "the effect of simultaneous actions by the
 * PEs is as if the actions occurred in some (unspecified) serial
 * order".  This harness makes the claim checkable: an algorithm (the
 * appendix's TIR/TDR parallel queue, the readers-writers solution, the
 * sense-reversing barrier, fetch-and-add itself) is expressed as a
 * handful of *atomic steps* per process on a 2-4 PE paracomputer
 * model, the explorer enumerates every interleaving of those steps,
 * and each outcome is judged -- by a linearizability check against a
 * sequential specification, or by a state invariant such as
 * reader/writer mutual exclusion.
 *
 * Exhaustive enumeration uses sleep-set partial-order reduction (the
 * DPOR family): once an interleaving starting with step `t` has been
 * explored from a state, sibling explorations may skip `t` until some
 * dependent step wakes it, which prunes schedules that merely commute
 * independent steps.  For configurations beyond exhaustive reach a
 * seeded random-walk fallback samples schedules instead.
 *
 * Spin waits are modeled as steps that are *enabled* only when their
 * condition holds, so busy loops add no interleavings; a state where
 * no process is enabled but not all have finished is reported as a
 * deadlock.
 */

#ifndef ULTRA_CHECK_SERIAL_H
#define ULTRA_CHECK_SERIAL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ultra::check
{

/** One process's control state inside a model. */
struct ProcState
{
    int pc = 0;                        //!< program counter
    std::array<std::int64_t, 4> reg{}; //!< private registers
    bool done = false;
    std::uint64_t invokeStep = 0; //!< step index the current op began at
};

/** A completed operation in the history (for linearizability). */
struct HistOp
{
    unsigned proc = 0;
    int kind = 0;              //!< model-defined op code
    std::int64_t arg = 0;
    std::int64_t result = 0;
    std::uint64_t invokeStep = 0;   //!< global step index at invocation
    std::uint64_t responseStep = 0; //!< global step index at response
};

/** Full system state: shared paracomputer memory + processes. */
struct SysState
{
    std::vector<std::int64_t> mem; //!< shared memory cells
    std::vector<ProcState> procs;
    std::vector<HistOp> history; //!< completed operations, in response order
    std::uint64_t steps = 0;     //!< atomic actions executed so far
};

/** Shared-memory footprint of a process's next atomic action. */
struct Footprint
{
    int loc = -1;      //!< shared cell index; -1 = touches none
    bool write = false; //!< true for writes and read-modify-writes
};

/**
 * An algorithm under verification.  Every step() must be one atomic
 * action on at most one shared cell (that is the paracomputer model:
 * loads, stores and fetch-and-phi are indivisible, nothing bigger is).
 */
class Model
{
  public:
    virtual ~Model() = default;

    virtual std::string name() const = 0;
    virtual unsigned numProcs() const = 0;
    virtual SysState initial() const = 0;

    /** May process @p p take its next step in @p s?  (False for done
     *  processes and for spin waits whose condition is not yet met.) */
    virtual bool enabled(const SysState &s, unsigned p) const = 0;

    /** Footprint of @p p's next step (for the independence relation). */
    virtual Footprint footprint(const SysState &s, unsigned p) const = 0;

    /** Execute @p p's next atomic step. */
    virtual void step(SysState &s, unsigned p) const = 0;

    /** Invariant over every reachable state; empty string = holds. */
    virtual std::string checkState(const SysState &) const { return {}; }

    /** Verdict on a terminal state (all processes done). */
    virtual std::string checkOutcome(const SysState &) const { return {}; }
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

/** Exhaustively enumerate interleavings of @p m (with reduction). */
ExploreResult explore(const Model &m, const ExploreOptions &opts = {});

/**
 * Seeded random-walk fallback: run @p walks complete schedules choosing
 * uniformly among enabled processes.  Invariants and outcomes are
 * checked exactly as in explore(); coverage is sampled, not complete.
 */
ExploreResult randomWalks(const Model &m, std::uint64_t walks,
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
