#include "check/serial.h"

#include <sstream>

#include "common/rng.h"

namespace ultra::check
{

namespace
{

/** Schedules deeper than this are cut off and reported truncated. */
constexpr std::uint64_t kMaxDepth = 4096;
/** Violations collected before a search stops. */
constexpr std::size_t kMaxViolations = 8;

/**
 * Independence of the *next* steps of two distinct processes in state
 * @p s: they commute unless both touch the same shared cell and at
 * least one writes it.  (Each step touches at most one cell, so one
 * footprint comparison decides.)
 */
bool
independent(const Model &m, const SysState &s, unsigned p, unsigned q)
{
    const Footprint a = m.footprint(s, p);
    const Footprint b = m.footprint(s, q);
    if (a.loc < 0 || b.loc < 0 || a.loc != b.loc)
        return true;
    return !a.write && !b.write;
}

std::string
describeStuck(const SysState &s)
{
    std::ostringstream os;
    os << "deadlock: no process enabled;";
    for (std::size_t p = 0; p < s.procs.size(); ++p) {
        if (!s.procs[p].done)
            os << " proc " << p << " stuck at pc " << s.procs[p].pc;
    }
    return os.str();
}

struct Dfs
{
    const Model &model;
    const ExploreOptions &opts;
    ExploreResult result;

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

    void
    visit(const SysState &s, std::vector<char> sleep, std::uint64_t depth)
    {
        if (limited() || depth > kMaxDepth) {
            result.truncated = true;
            return;
        }
        ++result.statesExplored;

        if (std::string err = model.checkState(s); !err.empty())
            addViolation(model.name() + ": " + err);

        const unsigned procs = model.numProcs();
        bool any_enabled = false;
        bool all_done = true;
        for (unsigned p = 0; p < procs; ++p) {
            any_enabled = any_enabled || model.enabled(s, p);
            all_done = all_done && s.procs[p].done;
        }
        if (!any_enabled) {
            if (all_done) {
                ++result.schedules;
                if (std::string err = model.checkOutcome(s); !err.empty())
                    addViolation(model.name() + ": " + err);
            } else {
                addViolation(model.name() + ": " + describeStuck(s));
            }
            return;
        }

        for (unsigned p = 0; p < procs; ++p) {
            if (!model.enabled(s, p))
                continue;
            if (opts.sleepSets && sleep[p]) {
                ++result.sleepPruned;
                continue;
            }
            SysState next = s;
            ++next.steps;
            model.step(next, p);

            // A sleeping step stays asleep in the child only while it
            // is independent of the step just taken.
            std::vector<char> child_sleep(procs, 0);
            for (unsigned q = 0; q < procs; ++q) {
                if (sleep[q] && q != p && independent(model, s, p, q))
                    child_sleep[q] = 1;
            }
            visit(next, std::move(child_sleep), depth + 1);
            if (limited()) {
                // The budget ran out mid-loop: abandoning a sibling
                // that would otherwise have been explored is a
                // truncation even when the final visit() landed
                // exactly on a terminal state.
                for (unsigned q = p + 1; q < procs; ++q) {
                    if (model.enabled(s, q) &&
                        !(opts.sleepSets && sleep[q])) {
                        result.truncated = true;
                        break;
                    }
                }
                return;
            }
            sleep[p] = 1; // later siblings needn't start with p again
        }
    }
};

} // namespace

ExploreResult
explore(const Model &m, const ExploreOptions &opts)
{
    Dfs dfs{m, opts, {}};
    dfs.visit(m.initial(), std::vector<char>(m.numProcs(), 0), 0);
    return dfs.result;
}

ExploreResult
randomWalks(const Model &m, std::uint64_t walks, std::uint64_t seed)
{
    ExploreResult result;
    Rng rng(seed);
    const unsigned procs = m.numProcs();
    std::vector<unsigned> enabled;
    for (std::uint64_t walk = 0; walk < walks; ++walk) {
        SysState s = m.initial();
        for (std::uint64_t depth = 0;; ++depth) {
            if (depth > kMaxDepth) {
                result.truncated = true;
                break;
            }
            ++result.statesExplored;
            if (std::string err = m.checkState(s); !err.empty()) {
                if (result.violations.size() < kMaxViolations)
                    result.violations.push_back(m.name() + ": " + err);
                break;
            }
            enabled.clear();
            bool all_done = true;
            for (unsigned p = 0; p < procs; ++p) {
                if (m.enabled(s, p))
                    enabled.push_back(p);
                all_done = all_done && s.procs[p].done;
            }
            if (enabled.empty()) {
                ++result.schedules;
                std::string err = all_done ? m.checkOutcome(s)
                                           : describeStuck(s);
                if (!err.empty() &&
                    result.violations.size() < kMaxViolations) {
                    result.violations.push_back(m.name() + ": " + err);
                }
                break;
            }
            const unsigned p = enabled[rng.uniformInt(
                static_cast<std::uint64_t>(enabled.size()))];
            ++s.steps;
            m.step(s, p);
        }
        if (result.violations.size() >= kMaxViolations)
            break;
    }
    return result;
}

} // namespace ultra::check
