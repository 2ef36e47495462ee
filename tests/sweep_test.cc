/**
 * @file
 * Sweep fabric battery (ultra::sweep + the ultrasweep driver).
 *
 * Unit half: grid expansion is a canonical cartesian product (axes in
 * sorted key order, last key fastest, seed replication innermost) and
 * the per-point seed is a pure function of (seed_base, point index).
 * Subprocess half: the committed smoke grid driven through the real
 * ultrasweep binary at worker counts 1/2/8 merges to byte-identical
 * files, each point's stats file is byte-identical to the same
 * configuration run standalone through `ultrasim net --stats-json`,
 * and a worker killed mid-job (ULTRASWEEP_CRASH_POINT) is retried
 * without perturbing the merged bytes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_lite.h"
#include "sweep/grid.h"
#include "sweep/pool.h"

#ifndef ULTRASIM_BIN
#error "build must define ULTRASIM_BIN (see tests/CMakeLists.txt)"
#endif
#ifndef ULTRASWEEP_BIN
#error "build must define ULTRASWEEP_BIN (see tests/CMakeLists.txt)"
#endif
#ifndef ULTRA_SMOKE_GRID
#error "build must define ULTRA_SMOKE_GRID (see tests/CMakeLists.txt)"
#endif

namespace ultra
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr ? dir : "/tmp") + "/ultrasweep_" +
           name;
}

int
runCommand(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The committed smoke grid, as text (shared with the CI smoke job). */
std::string
smokeGridText()
{
    return readFile(ULTRA_SMOKE_GRID);
}

double
num(const sweep::ParamMap &params, const std::string &name)
{
    auto it = params.find(name);
    EXPECT_NE(it, params.end()) << "missing param " << name;
    return it == params.end() ? -1.0 : it->second.num;
}

TEST(GridTest, ExpansionIsCanonicalCartesianProduct)
{
    std::string err;
    const std::vector<sweep::Point> points =
        sweep::expandGridFile(smokeGridText(), err);
    ASSERT_TRUE(err.empty()) << err;
    // 2 rates x 2 hot fractions x 2 seed replications.
    ASSERT_EQ(points.size(), 8u);

    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
        EXPECT_EQ(points[i].tag, "smoke");
        // Base parameters ride along on every point.
        EXPECT_EQ(num(points[i].params, "ports"), 16.0);
        EXPECT_EQ(num(points[i].params, "cycles"), 400.0);
    }

    // Axes iterate in sorted key order (hot < rate) with the last key
    // fastest and the seed replication innermost: index =
    // (hot_idx * 2 + rate_idx) * 2 + rep.
    EXPECT_EQ(num(points[0].params, "hot"), 0.0);
    EXPECT_EQ(num(points[0].params, "rate"), 0.05);
    EXPECT_EQ(num(points[1].params, "hot"), 0.0);
    EXPECT_EQ(num(points[1].params, "rate"), 0.05);
    EXPECT_EQ(num(points[2].params, "hot"), 0.0);
    EXPECT_EQ(num(points[2].params, "rate"), 0.1);
    EXPECT_EQ(num(points[4].params, "hot"), 0.25);
    EXPECT_EQ(num(points[4].params, "rate"), 0.05);
    EXPECT_EQ(num(points[7].params, "hot"), 0.25);
    EXPECT_EQ(num(points[7].params, "rate"), 0.1);

    // Every point's seed is derivePointSeed(seed_base, global index):
    // a pure function of the point's position, never of scheduling.
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(num(points[i].params, "seed"),
                  static_cast<double>(sweep::derivePointSeed(7, i)))
            << "point " << i;
    }
    // Replications of the same combo differ only in seed.
    EXPECT_NE(num(points[0].params, "seed"),
              num(points[1].params, "seed"));
}

TEST(GridTest, SeedDerivationIsPureAndCliFriendly)
{
    for (std::uint64_t base : {0ull, 1ull, 7ull, 123456789ull}) {
        for (std::size_t index = 0; index < 64; ++index) {
            const std::uint64_t a = sweep::derivePointSeed(base, index);
            const std::uint64_t b = sweep::derivePointSeed(base, index);
            EXPECT_EQ(a, b) << "not repeatable";
            EXPECT_GE(a, 1u) << "zero seed would collide with the "
                                "flag-absent default semantics";
            EXPECT_LT(a, 1000000007u) << "must round-trip --seed text";
        }
    }
    // Neighboring indices must not alias (splitmix64 mixing).
    EXPECT_NE(sweep::derivePointSeed(7, 0), sweep::derivePointSeed(7, 1));
    EXPECT_NE(sweep::derivePointSeed(7, 0), sweep::derivePointSeed(8, 0));
}

TEST(GridTest, RejectsUnknownParamsAndMalformedJson)
{
    std::string err;
    // A typo'd parameter must never become a default-configured run.
    auto points = sweep::expandGridFile(
        R"({"schema": "sweep.grid.v1",
            "grids": [{"base": {"protz": 16}}]})",
        err);
    EXPECT_TRUE(points.empty());
    EXPECT_NE(err.find("protz"), std::string::npos) << err;

    points = sweep::expandGridFile("{not json", err);
    EXPECT_TRUE(points.empty());
    EXPECT_FALSE(err.empty());

    points = sweep::expandGridFile(
        R"({"schema": "sweep.grid.v2", "grids": []})", err);
    EXPECT_TRUE(points.empty());
    EXPECT_FALSE(err.empty());

    // An axis must be a non-empty array.
    points = sweep::expandGridFile(
        R"({"schema": "sweep.grid.v1",
            "grids": [{"axes": {"rate": []}}]})",
        err);
    EXPECT_TRUE(points.empty());
    EXPECT_FALSE(err.empty());
}

TEST(GridTest, RejectsOutOfRangeValuesAtLoad)
{
    // Every point is checked when the grid loads, naming the point and
    // the parameter; values the CLI rejects are rejected here too.
    const struct
    {
        const char *base;
        const char *name;
    } cases[] = {
        {R"({"cycles": 0})", "cycles"},
        {R"({"rate": -1})", "rate"},
        {R"({"rate": 7})", "rate"},
        {R"({"hot": 2})", "hot"},
        {R"({"ports": 1e30})", "ports"},
        {R"({"k": 4294967296})", "'k'"},
        {R"({"seed": 1e30})", "seed"},
        {R"({"ports": 24})", "invalid network"},
    };
    for (const auto &c : cases) {
        std::string err;
        const auto points = sweep::expandGridFile(
            std::string(R"({"schema": "sweep.grid.v1", "grids": [)"
                        R"({"base": {"ports": 16, "cycles": 10}},)"
                        R"({"base": )") +
                c.base + "}]}",
            err);
        EXPECT_TRUE(points.empty()) << c.base;
        EXPECT_NE(err.find(c.name), std::string::npos)
            << c.base << ": " << err;
    }

    // The valid point before the bad one does not rescue the grid, and
    // the message says which point failed.
    std::string err;
    sweep::expandGridFile(
        R"({"schema": "sweep.grid.v1",
            "grids": [{"base": {"ports": 16}, "axes": {"rate": [0.1, 7]}}]})",
        err);
    EXPECT_NE(err.find("point 1: rate"), std::string::npos) << err;

    // specFromParams applies the same checks to a serve job's params.
    sweep::ParamMap params;
    params["cycles"] = sweep::ParamValue::number(0);
    sweep::specFromParams(params, err);
    EXPECT_NE(err.find("cycles"), std::string::npos) << err;
}

TEST(GridTest, SpecFromParamsMirrorsCliDefaults)
{
    std::string err;
    const sweep::NetPointSpec def =
        sweep::specFromParams(sweep::ParamMap{}, err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(def.net.numPorts, 256u);
    EXPECT_EQ(def.cycles, 10000u);
    EXPECT_DOUBLE_EQ(def.traffic.rate, 0.1);
    EXPECT_EQ(def.traffic.seed, 1u);
    EXPECT_EQ(def.pni.maxOutstanding, 8u); // open loop

    sweep::ParamMap closed;
    closed["closed"] = sweep::ParamValue::number(4);
    const sweep::NetPointSpec cl = sweep::specFromParams(closed, err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(cl.traffic.closedLoop);
    EXPECT_EQ(cl.traffic.window, 4u);
    EXPECT_EQ(cl.pni.maxOutstanding, 0u);

    sweep::ParamMap bad;
    bad["policy"] = sweep::ParamValue::text("bogus");
    sweep::specFromParams(bad, err);
    EXPECT_FALSE(err.empty());
}

TEST(GridTest, MergeIsPureConcatenation)
{
    const std::string merged =
        sweep::mergeSweepJson({"{\"index\": 0}", "{\"index\": 1}"});
    EXPECT_TRUE(sweep::isSweepDocument(merged)) << merged;
    const jsonlite::JsonValue doc = jsonlite::parse(merged);
    EXPECT_EQ(doc["point_count"].number, 2.0);
    ASSERT_EQ(doc["points"].array.size(), 2u);
    EXPECT_FALSE(sweep::isSweepDocument("{\"schema\": \"other\"}"));
}

// ---------------------------------------------------------------------
// Subprocess half: the real binaries on the committed smoke grid.
// ---------------------------------------------------------------------

/** Run ultrasweep on the smoke grid; returns the exit status. */
int
runSweep(const std::string &outPath, unsigned workers,
         const std::string &pointsDir, const std::string &envPrefix = "")
{
    std::ostringstream cmd;
    cmd << envPrefix << ULTRASWEEP_BIN << " --grid " << ULTRA_SMOKE_GRID
        << " --out " << outPath << " --workers " << workers;
    if (!pointsDir.empty())
        cmd << " --points-dir " << pointsDir;
    cmd << " > /dev/null 2>&1";
    return runCommand(cmd.str());
}

TEST(UltrasweepTest, MergedOutputIsWorkerCountInvariant)
{
    std::string first;
    for (unsigned workers : {1u, 2u, 8u}) {
        const std::string out =
            tmpPath("w" + std::to_string(workers) + ".json");
        const std::string dir = out + ".points.d";
        ASSERT_EQ(runSweep(out, workers, dir), 0)
            << "workers=" << workers;
        const std::string merged = readFile(out);
        ASSERT_FALSE(merged.empty());
        EXPECT_TRUE(sweep::isSweepDocument(merged));
        if (first.empty()) {
            first = merged;
            const jsonlite::JsonValue doc = jsonlite::parse(merged);
            EXPECT_EQ(doc["point_count"].number, 8.0);
        } else {
            EXPECT_EQ(merged, first)
                << "merged bytes depend on worker count (" << workers
                << ")";
        }
        ASSERT_EQ(runCommand("rm -rf " + dir), 0);
        std::remove(out.c_str());
    }
}

TEST(UltrasweepTest, PointStatsMatchStandaloneUltrasim)
{
    const std::string out = tmpPath("standalone.json");
    const std::string dir = out + ".points.d";
    ASSERT_EQ(runSweep(out, 4, dir), 0);
    const jsonlite::JsonValue doc = jsonlite::parse(readFile(out));
    ASSERT_EQ(doc["points"].array.size(), 8u);

    // Two representative points (uniform and hot-spot): replay each
    // recorded argv through the real ultrasim binary and demand the
    // standalone --stats-json bytes equal the sweep worker's.
    for (std::size_t index : {0ul, 5ul}) {
        const jsonlite::JsonValue &pt = doc["points"].array[index];
        ASSERT_TRUE(pt["argv"].isArray());
        std::ostringstream cmd;
        cmd << ULTRASIM_BIN;
        for (const jsonlite::JsonValue &arg : pt["argv"].array)
            cmd << " " << arg.string;
        const std::string statsPath =
            tmpPath("standalone_" + std::to_string(index) + ".stats");
        cmd << " --stats-json " << statsPath << " > /dev/null 2>&1";
        ASSERT_EQ(runCommand(cmd.str()), 0) << cmd.str();

        char name[64];
        std::snprintf(name, sizeof name, "/point_%05zu.stats.json",
                      index);
        const std::string sweepStats = readFile(dir + name);
        const std::string standalone = readFile(statsPath);
        ASSERT_FALSE(sweepStats.empty());
        ASSERT_FALSE(standalone.empty());
        EXPECT_EQ(sweepStats, standalone)
            << "point " << index
            << ": sweep worker diverged from standalone ultrasim";
        std::remove(statsPath.c_str());
    }
    ASSERT_EQ(runCommand("rm -rf " + dir), 0);
    std::remove(out.c_str());
}

TEST(UltrasweepTest, CrashedWorkerIsRetriedWithoutTrace)
{
    const std::string clean = tmpPath("clean.json");
    const std::string cleanDir = clean + ".points.d";
    ASSERT_EQ(runSweep(clean, 2, cleanDir), 0);

    // Kill point 3's first attempt the way a real crashed worker dies;
    // the pool must retry it and the merged bytes must not notice.
    const std::string crashed = tmpPath("crashed.json");
    const std::string crashedDir = crashed + ".points.d";
    ASSERT_EQ(runSweep(crashed, 2, crashedDir,
                       "ULTRASWEEP_CRASH_POINT=3 "),
              0)
        << "crashed point was not retried to success";
    EXPECT_EQ(readFile(crashed), readFile(clean))
        << "a retried point changed the merged bytes";

    ASSERT_EQ(runCommand("rm -rf " + cleanDir + " " + crashedDir), 0);
    std::remove(clean.c_str());
    std::remove(crashed.c_str());
}

TEST(PoolTest, DetectHostCoresIsPositive)
{
    EXPECT_GE(sweep::detectHostCores(), 1u);
}

TEST(PoolTest, OutcomeCountsRetriesAndFailures)
{
    // In-process pool exercise: fn's exit status drives retry
    // accounting.  Index 0 fails its first attempt only; index 1
    // always fails and must exhaust maxAttempts.
    sweep::PoolOptions opts;
    opts.workers = 2;
    opts.maxAttempts = 2;
    const sweep::PoolOutcome outcome = sweep::runForkPool(
        2,
        [](std::size_t index, unsigned attempt) {
            if (index == 0)
                return attempt == 0 ? 1 : 0;
            return 1;
        },
        opts);
    EXPECT_EQ(outcome.succeeded, 1u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.retried, 2u);
}

} // namespace
} // namespace ultra
