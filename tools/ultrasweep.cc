/**
 * @file
 * ultrasweep -- multi-process parameter-sweep driver.
 *
 * Expands a JSON parameter grid (machine configuration x workload x
 * seeds; schema "sweep.grid.v1", see src/sweep/grid.h) into experiment
 * points, fans the points across a fork-based worker pool sized to the
 * honest host core count, and merges the per-point stats into one
 * sorted-key "sweep.v1" result file.
 *
 * Determinism contract (pinned by tests/sweep_test.cc and the CI
 * sweep-smoke job): each point's embedded stats dump is byte-identical
 * to the same configuration run standalone through
 * `ultrasim net ... --stats-json`, and the merged file is
 * byte-identical at any worker count -- per-point seeds derive from
 * the point index, never from scheduling, and the merge is a pure
 * concatenation in index order.
 *
 * Usage: ultrasweep --grid FILE [options]
 *   --grid FILE       the sweep.grid.v1 parameter grid (required)
 *   --out FILE        merged sweep.v1 output (default sweep.json)
 *   --points-dir DIR  per-point scratch dir (default OUT.points.d)
 *   --workers N       worker processes, 1..1024 (default
 *                     min(points, cores))
 *   --retries N       attempts per point, at least 1 (default 3)
 *   --timeout-s S     per-attempt wall budget, 0 = none (default 0)
 *   --list            print the expanded points and exit
 *
 * The merged file is the only output; `ultrascope --sweep` renders it.
 *
 * A bad flag or value (src/common/cli.h) or a malformed grid exits 2
 * with usage; a point that fails every attempt, or a failed write of
 * the merged file, exits 1.  ULTRASWEEP_CRASH_POINT=<index> makes that
 * point's first attempt kill itself -- the retry-path test hook.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/stat.h>

#include "common/cli.h"
#include "obs/registry.h"
#include "sweep/grid.h"
#include "sweep/net_run.h"
#include "sweep/pool.h"

namespace
{

using namespace ultra;

/** More concurrent workers than this is a typo, not a sweep. */
constexpr std::uint64_t kMaxWorkers = 1024;

void
usage()
{
    std::fprintf(stderr,
                 "usage: ultrasweep --grid FILE [--out FILE] "
                 "[--points-dir DIR]\n"
                 "                 [--workers N] [--retries N] "
                 "[--timeout-s S] [--list]\n"
                 "see the comment at the top of tools/ultrasweep.cc\n");
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string
pointPath(const std::string &dir, std::size_t index, const char *kind)
{
    char name[64];
    std::snprintf(name, sizeof name, "point_%05zu.%s", index, kind);
    return dir + "/" + name;
}

/** Run one point in the forked worker: simulate, dump, record. */
int
runPoint(const sweep::Point &point, unsigned attempt,
         const std::string &pointsDir)
{
    // Crash-injection hook for the retry-path test: the named point's
    // first attempt dies the way a real crashed worker would.
    const char *crash = std::getenv("ULTRASWEEP_CRASH_POINT");
    if (crash != nullptr && attempt == 0 &&
        std::strtoull(crash, nullptr, 10) == point.index) {
        ::raise(SIGKILL);
    }
    std::string err;
    const sweep::NetPointSpec spec =
        sweep::specFromParams(point.params, err);
    if (!err.empty()) {
        std::fprintf(stderr, "point %zu: %s\n", point.index,
                     err.c_str());
        return 2;
    }
    sweep::NetExperiment exp(spec);
    exp.run();
    // The stats file carries exactly the bytes a standalone
    // `ultrasim net --stats-json` run would write for this point.
    const obs::DumpOptions dump{.sortKeys = true, .pretty = false};
    const std::string stats = exp.statsJson(dump);
    if (!cli::writeTextFile(pointPath(pointsDir, point.index, "stats.json"),
                   stats)) {
        return 1;
    }
    const std::string record = sweep::pointRecordJson(point, stats);
    if (!cli::writeTextFile(pointPath(pointsDir, point.index, "json"), record))
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Flags args("ultrasweep", usage, argc, argv, 1);
    args.rejectUnknown({"grid", "out", "points-dir", "workers",
                        "retries", "timeout-s", "list"});
    const std::string gridPath = args.getString("grid", "");
    if (gridPath.empty())
        args.fail("--grid FILE is required");
    std::string gridText;
    if (!readFile(gridPath, gridText))
        args.fail("cannot read " + gridPath);
    std::string err;
    const std::vector<sweep::Point> points =
        sweep::expandGridFile(gridText, err);
    if (!err.empty())
        args.fail(gridPath + ": " + err);

    // Read every flag before any work, so a bad one fails fast.
    const bool list = args.flag("list");
    const std::string out = args.getString("out", "sweep.json");
    const std::string pointsDir =
        args.getString("points-dir", out + ".points.d");
    sweep::PoolOptions popts;
    const std::size_t defaultWorkers = std::min<std::size_t>(
        points.size(), sweep::detectHostCores());
    popts.workers = static_cast<unsigned>(
        args.getInt("workers", defaultWorkers, 1, kMaxWorkers));
    popts.maxAttempts =
        static_cast<unsigned>(args.getInt("retries", 3, 1, UINT32_MAX));
    popts.timeoutNs =
        args.getInt("timeout-s", 0, 0, UINT64_MAX / 1000000000ull) *
        1000000000ull;
    popts.backoffNs = 100000000ull; // 100 ms, doubled per retry

    if (list) {
        for (const sweep::Point &pt : points) {
            std::printf("%5zu  %-12s ", pt.index,
                        pt.tag.empty() ? "-" : pt.tag.c_str());
            for (const std::string &a :
                 sweep::argvForParams(pt.params)) {
                std::printf(" %s", a.c_str());
            }
            std::printf("\n");
        }
        return 0;
    }

    if (::mkdir(pointsDir.c_str(), 0777) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "ultrasweep: cannot create %s: %s\n",
                     pointsDir.c_str(), std::strerror(errno));
        return 1;
    }

    const sweep::PoolOutcome outcome = sweep::runForkPool(
        points.size(),
        [&points, &pointsDir](std::size_t index, unsigned attempt) {
            return runPoint(points[index], attempt, pointsDir);
        },
        popts);
    if (outcome.failed != 0) {
        std::fprintf(stderr,
                     "ultrasweep: %zu of %zu points failed every "
                     "attempt\n",
                     outcome.failed, points.size());
        return 1;
    }

    std::vector<std::string> records;
    records.reserve(points.size());
    for (const sweep::Point &pt : points) {
        std::string rec;
        if (!readFile(pointPath(pointsDir, pt.index, "json"), rec)) {
            std::fprintf(stderr,
                         "ultrasweep: missing record for point %zu\n",
                         pt.index);
            return 1;
        }
        records.push_back(std::move(rec));
    }
    const std::string merged = sweep::mergeSweepJson(records);
    if (!cli::writeTextFile(out, merged)) {
        std::fprintf(stderr, "ultrasweep: --out %s: sweep not saved\n",
                     out.c_str());
        return 1;
    }

    std::printf("ultrasweep: %zu points, %u workers, %zu retried, "
                "merged -> %s\n",
                points.size(), popts.workers, outcome.retried,
                out.c_str());
    return 0;
}
