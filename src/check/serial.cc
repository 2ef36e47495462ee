#include "check/serial.h"

#include <sstream>
#include <utility>

#include "common/log.h"
#include "common/rng.h"

namespace ultra::check
{

Run::Run(unsigned procs) : ports_(procs), tasks_(procs) {}

Addr
Run::alloc(std::size_t n)
{
    const Addr base = mem.size();
    mem.resize(mem.size() + n, 0);
    return base;
}

void
Run::launch(unsigned p, pe::Task task)
{
    ULTRA_ASSERT(!tasks_[p].valid(), "process launched twice");
    tasks_[p] = std::move(task);
    tasks_[p].handle().resume();
    tasks_[p].rethrowIfFailed();
}

bool
Run::runnable(unsigned p) const
{
    if (done(p))
        return false;
    const Port &port = ports_[p];
    const bool reload = port.pending_.kind == Port::Kind::Load &&
                        port.lastWasLoad_ &&
                        port.lastAddr_ == port.pending_.addr;
    return !reload || mem[port.pending_.addr] != port.result_;
}

Footprint
Run::pending(unsigned p) const
{
    const Port::Action &pending = ports_[p].pending_;
    return {pending.addr, pending.kind != Port::Kind::Load};
}

void
Run::step(unsigned p)
{
    Port &port = ports_[p];
    ULTRA_ASSERT(!done(p), "stepped a finished process");
    const Port::Action action = port.pending_;
    ULTRA_ASSERT(action.addr < mem.size(), "action outside the memory");
    Word &cell = mem[action.addr];
    port.result_ = cell;
    if (action.kind == Port::Kind::Store)
        cell = action.operand;
    else if (action.kind == Port::Kind::FetchAdd)
        cell += action.operand;
    port.lastWasLoad_ = action.kind == Port::Kind::Load;
    port.lastAddr_ = action.addr;
    port.lastStep_ = ++steps;
    if (port.invokeStep_ == 0)
        port.invokeStep_ = steps;
    std::exchange(port.resume_, nullptr).resume();
    tasks_[p].rethrowIfFailed();
}

void
Run::record(unsigned p, int kind, Word arg, Word result)
{
    const Port &port = ports_[p];
    history.push_back(
        {p, kind, arg, result, port.invokeStep_, port.lastStep_});
}

namespace
{

/** Schedules deeper than this are cut off and reported truncated. */
constexpr std::uint64_t kMaxDepth = 4096;
/** Violations collected before a search stops. */
constexpr std::size_t kMaxViolations = 8;

/**
 * Independence of the next steps of two distinct processes: they
 * commute unless both touch the same shared cell and at least one
 * writes it.  (Each step touches exactly one cell, so one footprint
 * comparison decides.)
 */
bool
independent(const Footprint &a, const Footprint &b)
{
    return a.addr != b.addr || (!a.write && !b.write);
}

std::string
describeStuck(const Run &run)
{
    std::ostringstream os;
    os << "deadlock: no process enabled;";
    for (unsigned p = 0; p < run.numProcs(); ++p) {
        if (!run.done(p)) {
            const Addr addr = run.pending(p).addr;
            os << " proc " << p << " spins on cell " << addr << " (holds "
               << run.mem[addr] << ")";
        }
    }
    return os.str();
}

struct Dfs
{
    const Program &program;
    const ExploreOptions &opts;
    ExploreResult result;
    std::vector<unsigned> schedule; //!< steps from the initial state
    std::unique_ptr<Run> run;       //!< the state `schedule` reaches

    void
    addViolation(std::string msg)
    {
        if (result.violations.size() < kMaxViolations)
            result.violations.push_back(std::move(msg));
    }

    bool
    limited() const
    {
        return result.statesExplored >= opts.maxStates ||
               result.violations.size() >= kMaxViolations;
    }

    /** Rebuild the state `schedule` reaches by replaying it from the
     *  initial state: coroutine frames cannot be copied. */
    void
    rebuild()
    {
        run = program.start();
        for (unsigned p : schedule)
            run->step(p);
    }

    void
    visit(std::vector<char> sleep)
    {
        if (limited() || schedule.size() > kMaxDepth) {
            result.truncated = true;
            return;
        }
        ++result.statesExplored;

        if (std::string err = run->checkState(); !err.empty())
            addViolation(program.name + ": " + err);

        const unsigned procs = run->numProcs();
        std::vector<char> runnable(procs, 0);
        std::vector<Footprint> footprints(procs);
        bool all_done = true;
        for (unsigned p = 0; p < procs; ++p) {
            runnable[p] = run->runnable(p);
            all_done = all_done && run->done(p);
            if (!run->done(p))
                footprints[p] = run->pending(p);
        }
        if (all_done) {
            ++result.schedules;
            if (std::string err = run->checkOutcome(); !err.empty())
                addViolation(program.name + ": " + err);
            return;
        }

        // Failed polls taken from this state stay on the schedule until
        // its last child is done: replays must repeat them.
        const std::size_t base = schedule.size();
        bool at_this_state = true;
        bool moved = false;
        for (unsigned p = 0; p < procs; ++p) {
            if (!runnable[p])
                continue;
            if (opts.sleepSets && sleep[p]) {
                ++result.sleepPruned;
                moved = true; // explored from an earlier sibling
                continue;
            }
            if (!at_this_state)
                rebuild();
            run->step(p);
            schedule.push_back(p);
            if (!run->done(p) && !run->runnable(p)) {
                // A failed poll: p is back at the load it just ran, and
                // nothing but its port's memory changed.  That is no
                // branch: the other children are explored from here.
                at_this_state = true;
                continue;
            }
            at_this_state = false;
            moved = true;

            // A sleeping step stays asleep in the child only while it
            // is independent of the step just taken.
            std::vector<char> child_sleep(procs, 0);
            for (unsigned q = 0; q < procs; ++q) {
                if (sleep[q] && q != p &&
                    independent(footprints[p], footprints[q])) {
                    child_sleep[q] = 1;
                }
            }
            visit(std::move(child_sleep));
            schedule.pop_back();
            if (limited()) {
                // The budget ran out mid-loop: abandoning a sibling
                // that would otherwise have been explored is a
                // truncation even when the final visit() landed
                // exactly on a terminal state.
                for (unsigned q = p + 1; q < procs; ++q) {
                    if (runnable[q] && !(opts.sleepSets && sleep[q])) {
                        result.truncated = true;
                        break;
                    }
                }
                schedule.resize(base);
                return;
            }
            sleep[p] = 1; // later siblings needn't start with p again
        }
        // No process is enabled, or every enabled step was a failed
        // poll: nothing can move.
        if (!moved)
            addViolation(program.name + ": " + describeStuck(*run));
        schedule.resize(base);
    }
};

} // namespace

ExploreResult
explore(const Program &program, const ExploreOptions &opts)
{
    Dfs dfs{program, opts, {}, {}, program.start()};
    dfs.visit(std::vector<char>(dfs.run->numProcs(), 0));
    return dfs.result;
}

ExploreResult
randomWalks(const Program &program, std::uint64_t walks,
            std::uint64_t seed)
{
    ExploreResult result;
    Rng rng(seed);
    std::vector<unsigned> enabled;
    for (std::uint64_t walk = 0; walk < walks; ++walk) {
        const std::unique_ptr<Run> run = program.start();
        for (std::uint64_t depth = 0;; ++depth) {
            if (depth > kMaxDepth) {
                result.truncated = true;
                break;
            }
            ++result.statesExplored;
            if (std::string err = run->checkState(); !err.empty()) {
                if (result.violations.size() < kMaxViolations)
                    result.violations.push_back(program.name + ": " + err);
                break;
            }
            enabled.clear();
            bool all_done = true;
            for (unsigned p = 0; p < run->numProcs(); ++p) {
                if (run->runnable(p))
                    enabled.push_back(p);
                all_done = all_done && run->done(p);
            }
            if (enabled.empty()) {
                ++result.schedules;
                std::string err = all_done ? run->checkOutcome()
                                           : describeStuck(*run);
                if (!err.empty() &&
                    result.violations.size() < kMaxViolations) {
                    result.violations.push_back(program.name + ": " + err);
                }
                break;
            }
            run->step(enabled[rng.uniformInt(
                static_cast<std::uint64_t>(enabled.size()))]);
        }
        if (result.violations.size() >= kMaxViolations)
            break;
    }
    return result;
}

} // namespace ultra::check
