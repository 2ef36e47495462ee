/**
 * @file
 * ultracheck -- serialization-principle verifier for the simulator's
 * own core::coord coordination algorithms (see src/check/serial.h and
 * DESIGN.md "Verifying the serialization principle").
 *
 * Runs the coord coroutines -- the appendix's TIR/TDR parallel queue,
 * the readers-writers solution and the sense-reversing barrier that
 * the applications use -- plus fetch-and-add itself on a check-side
 * port over a 2-4 PE paracomputer, exhaustively enumerates every
 * interleaving of their memory actions, and checks that each outcome
 * linearizes to some serial order (the section-2.2 serialization
 * principle) and that every reachable state satisfies the algorithm's
 * invariants.
 *
 * Usage:
 *   ultracheck [--suite fa|queue|rw|barrier|all] [--pes N]
 *              [--max-states N] [--no-reduction]
 *              [--random-walks K] [--seed S]
 *              [--demo-bug]
 *
 *   --suite S        which primitive(s) to verify (default all)
 *   --pes N          max processes per configuration, 2..4 (default 3)
 *   --max-states N   exhaustive exploration budget (default 2e8)
 *   --no-reduction   disable sleep-set partial-order reduction
 *   --random-walks K after each exhaustive run, also sample K random
 *                    schedules (coverage cross-check; default 0); their
 *                    steps print as walk_steps=, and a walk cut at the
 *                    depth cap fails the run
 *   --seed S         random-walk seed (default 1)
 *   --demo-bug       run the intentionally broken load-then-store
 *                    counter and show the verifier catching it
 *
 * Exit status: 0 when every configuration verifies, 1 otherwise, 2 for
 * a bad invocation: flags parse through the strict parser every tool
 * shares (src/common/cli.h), so an unknown flag or a malformed or
 * out-of-range number exits 2 naming the flag.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "check/programs.h"
#include "common/cli.h"

namespace
{

using namespace ultra::check;

void
usage()
{
    std::fprintf(stderr,
                 "usage: ultracheck [--suite fa|queue|rw|barrier|all]\n"
                 "                  [--pes N] [--max-states N]\n"
                 "                  [--no-reduction] [--random-walks K]\n"
                 "                  [--seed S] [--demo-bug]\n");
}

struct RunConfig
{
    ExploreOptions opts;
    std::uint64_t randomWalkCount = 0;
    std::uint64_t seed = 1;
};

/** Verify one program; prints a PASS/FAIL line.  @return pass? */
bool
runProgram(const Program &program, const RunConfig &cfg,
           bool expect_violation)
{
    ExploreResult res = explore(program, cfg.opts);
    // Random walks are reported beside the exhaustive run, never summed
    // into it: `states=` is always the exhaustive count.
    ExploreResult walk;
    if (cfg.randomWalkCount != 0) {
        walk = randomWalks(program, cfg.randomWalkCount, cfg.seed);
        for (const std::string &v : walk.violations)
            res.violations.push_back("(random walk) " + v);
    }

    // Truncation (state/depth/violation-cap limits, in the exhaustive
    // run or a walk) invalidates a verification pass; a demo run that
    // already found its expected violation merely stopped collecting
    // early.
    const bool found = !res.violations.empty();
    const bool truncated = res.truncated || walk.truncated;
    const bool pass = found == expect_violation && (found || !truncated);
    const std::string walk_steps =
        cfg.randomWalkCount != 0
            ? " walk_steps=" + std::to_string(walk.statesExplored)
            : "";
    std::printf("%-34s %s  states=%llu schedules=%llu pruned=%llu%s%s%s\n",
                program.name.c_str(),
                pass ? (expect_violation ? "CAUGHT" : "PASS") : "FAIL",
                static_cast<unsigned long long>(res.statesExplored),
                static_cast<unsigned long long>(res.schedules),
                static_cast<unsigned long long>(res.sleepPruned),
                walk_steps.c_str(),
                res.truncated ? "  (TRUNCATED: raise --max-states)" : "",
                walk.truncated ? "  (WALK TRUNCATED at the depth cap)" : "");
    const std::size_t show = expect_violation ? 1 : res.violations.size();
    for (std::size_t i = 0; i < show && i < res.violations.size(); ++i)
        std::printf("    %s %s\n", expect_violation ? "found:" : "VIOLATION:",
                    res.violations[i].c_str());
    return pass;
}

/** Every length-`procs` composition of the two role characters. */
std::vector<std::string>
roleShapes(unsigned procs, char a, char b)
{
    std::vector<std::string> shapes;
    for (unsigned bits = 0; bits < (1u << procs); ++bits) {
        std::string shape;
        for (unsigned p = 0; p < procs; ++p)
            shape.push_back((bits >> p) & 1 ? b : a);
        shapes.push_back(shape);
    }
    return shapes;
}

bool
runFetchAdd(unsigned max_pes, const RunConfig &cfg)
{
    bool ok = true;
    for (unsigned p = 2; p <= max_pes; ++p)
        ok = runProgram(makeFetchAdd(p), cfg, false) && ok;
    return ok;
}

bool
runQueue(unsigned max_pes, const RunConfig &cfg)
{
    bool ok = true;
    for (unsigned p = 2; p <= max_pes; ++p) {
        for (const std::string &shape : roleShapes(p, 'i', 'd')) {
            for (unsigned capacity : {1u, 2u}) {
                ok = runProgram(makeParallelQueue(shape, capacity), cfg,
                                false) &&
                     ok;
            }
        }
    }
    return ok;
}

bool
runReadersWriters(unsigned max_pes, const RunConfig &cfg)
{
    bool ok = true;
    for (unsigned p = 2; p <= max_pes; ++p)
        for (const std::string &shape : roleShapes(p, 'r', 'w'))
            ok = runProgram(makeReadersWriters(shape), cfg, false) && ok;
    return ok;
}

bool
runBarrier(unsigned max_pes, const RunConfig &cfg)
{
    bool ok = true;
    for (unsigned p = 2; p <= max_pes; ++p)
        for (unsigned episodes : {1u, 2u})
            ok = runProgram(makeBarrier(p, episodes), cfg, false) && ok;
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const ultra::cli::Flags args("ultracheck", usage, argc, argv, 1);
    args.rejectUnknown({"suite", "pes", "max-states", "no-reduction",
                        "random-walks", "seed", "demo-bug", "help"});
    if (args.flag("help")) {
        usage();
        return 0;
    }

    const std::string suite = args.getString("suite", "all");
    if (suite != "fa" && suite != "queue" && suite != "rw" &&
        suite != "barrier" && suite != "all") {
        args.fail("unknown --suite '" + suite + "'");
    }
    const unsigned max_pes =
        static_cast<unsigned>(args.getInt("pes", 3, 2, 4));

    RunConfig cfg;
    cfg.opts.maxStates =
        args.getInt("max-states", cfg.opts.maxStates, 1, UINT64_MAX);
    cfg.opts.sleepSets = !args.flag("no-reduction");
    cfg.randomWalkCount = args.getInt("random-walks", 0, 0, UINT64_MAX);
    cfg.seed = args.getInt("seed", 1, 0, UINT64_MAX);

    if (args.flag("demo-bug")) {
        std::printf("demonstration: load-then-store counter "
                    "(NOT serializable)\n");
        const bool caught =
            runProgram(makeBrokenCounter(2), cfg, /*expect_violation=*/true);
        return caught ? 0 : 1;
    }

    bool ok = true;
    if (suite == "fa" || suite == "all")
        ok = runFetchAdd(max_pes, cfg) && ok;
    if (suite == "queue" || suite == "all")
        ok = runQueue(max_pes, cfg) && ok;
    if (suite == "rw" || suite == "all")
        ok = runReadersWriters(max_pes, cfg) && ok;
    if (suite == "barrier" || suite == "all")
        ok = runBarrier(max_pes, cfg) && ok;

    std::printf("%s\n", ok ? "ultracheck: all configurations verified"
                           : "ultracheck: VIOLATIONS FOUND");
    return ok ? 0 : 1;
}
