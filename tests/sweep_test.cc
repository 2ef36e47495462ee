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
#include <set>
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
    // 2 rates x 2 hot fractions x 2 seed replications, then the
    // one-point latency grid.
    ASSERT_EQ(points.size(), 9u);

    for (std::size_t i = 0; i < 8; ++i) {
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
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(num(points[i].params, "seed"),
                  static_cast<double>(sweep::derivePointSeed(7, i)))
            << "point " << i;
    }
    // Replications of the same combo differ only in seed.
    EXPECT_NE(num(points[0].params, "seed"),
              num(points[1].params, "seed"));

    // Grids expand in file order; without "seeds" the seed is 1.
    EXPECT_EQ(points[8].index, 8u);
    EXPECT_EQ(points[8].tag, "latency");
    EXPECT_EQ(num(points[8].params, "seed"), 1.0);
    EXPECT_TRUE(points[8].params.at("latency").b);
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

    // Nesting past the parser's cap is a syntax error, not a stack
    // overflow; at the cap the document parses (and fails the schema).
    points = sweep::expandGridFile(std::string(100000, '['), err);
    EXPECT_TRUE(points.empty());
    EXPECT_NE(err.find("nested deeper than 64"), std::string::npos) << err;
    points = sweep::expandGridFile(
        std::string(64, '[') + std::string(64, ']'), err);
    EXPECT_TRUE(points.empty());
    EXPECT_NE(err.find("schema"), std::string::npos) << err;

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

    // One port builds no network: rejected at load, not in a worker.
    points = sweep::expandGridFile(
        R"({"schema": "sweep.grid.v1",
            "grids": [{"base": {"ports": 1}}]})",
        err);
    EXPECT_TRUE(points.empty());
    EXPECT_NE(err.find("ports must be a power of k"), std::string::npos)
        << err;
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
        {R"({"closed": 0})", "closed"},
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

    // specFromParams applies the same checks to a point's params on
    // their own, as each ultrasweep worker calls it.
    sweep::ParamMap params;
    params["cycles"] = sweep::ParamValue::number(0);
    sweep::specFromParams(params, err);
    EXPECT_NE(err.find("cycles"), std::string::npos) << err;
}

/** Whether `ultrasim net --NAME TEXT` resolves, through the same
 *  calls the tool makes. */
bool
cliAccepts(const std::string &name, const std::string &text)
{
    sweep::ParamMap params;
    std::string err;
    if (!sweep::paramFromFlag(sweep::FlagSurface::Net, name, text, params,
                              err)) {
        EXPECT_NE(err.find("--" + name), std::string::npos) << err;
        return false;
    }
    sweep::specFromParams(params, err);
    return err.empty();
}

/** Whether a grid whose base is {"NAME": JSON} loads. */
bool
gridAccepts(const std::string &name, const std::string &json)
{
    std::string err;
    sweep::expandGridFile(R"({"schema": "sweep.grid.v1", "base": {")" +
                              name + "\": " + json + "}}",
                          err);
    return err.empty();
}

TEST(GridTest, CliAndGridAgreeOnEveryParameter)
{
    // Per flag: garbage, out of range and the range's boundaries, each
    // as CLI text and as grid JSON.  Both paths must give the expected
    // verdict, so they agree.
    const struct
    {
        const char *name;
        const char *cli;
        const char *json;
        bool accept;
    } cases[] = {
        {"burroughs", "5", "5", false},
        {"burroughs", "", "true", true},
        {"closed", "abc", "\"abc\"", false},
        {"closed", "0", "0", false},
        {"closed", "4294967296", "4294967296", false},
        {"closed", "1", "1", true},
        {"closed", "4294967295", "4294967295", true},
        {"cycles", "12x", "\"12x\"", false},
        {"cycles", "0", "0", false},
        {"cycles", "9007199254740993", "9007199254740994", false},
        {"cycles", "1", "1", true},
        {"d", "-1", "-1", false},
        {"d", "4294967296", "4294967296", false},
        {"d", "0", "0", false}, // in range, but no network has d = 0
        {"d", "2", "2", true},
        {"hot", "0.5x", "\"0.5x\"", false},
        {"hot", "-0.5", "-0.5", false},
        {"hot", "1.5", "1.5", false},
        {"hot", "0", "0", true},
        {"hot", "1", "1", true},
        {"ideal", "yes", "\"yes\"", false},
        {"ideal", "", "true", true},
        {"k", "two", "\"two\"", false},
        {"k", "4294967296", "4294967296", false},
        {"k", "4294967295", "4294967295", false}, // 256 ports: no power
        {"k", "4", "4", true},
        {"latency", "1", "1", false},
        {"latency", "", "true", true},
        {"latency", "", "false", true},
        {"m", "2.5", "2.5", false},
        {"m", "4294967296", "4294967296", false},
        {"m", "1", "1", true},
        {"policy", "bogus", "\"bogus\"", false},
        {"policy", "", "\"\"", false},
        {"policy", "none", "\"none\"", true},
        {"policy", "homo", "\"homo\"", true},
        {"ports", "16x", "\"16x\"", false},
        {"ports", "4294967296", "4294967296", false},
        {"ports", "24", "24", false},
        {"ports", "16", "16", true},
        {"queue", "q", "\"q\"", false},
        {"queue", "4294967296", "4294967296", false},
        {"queue", "0", "0", true},
        {"queue", "4294967295", "4294967295", true},
        {"rate", "x", "\"x\"", false},
        {"rate", "7", "7", false},
        {"rate", "-1", "-1", false},
        {"rate", "0", "0", true},
        {"rate", "1", "1", true},
        {"seed", "1e3", "\"1e3\"", false},
        {"seed", "9007199254740993", "9007199254740994", false},
        {"seed", "0", "0", true},
        {"seed", "9007199254740992", "9007199254740992", true},
        {"uniform", "5", "5", false},
        {"uniform", "", "true", true},
    };
    std::set<std::string> covered;
    for (const auto &c : cases) {
        EXPECT_EQ(cliAccepts(c.name, c.cli), c.accept)
            << "--" << c.name << " '" << c.cli << "'";
        EXPECT_EQ(gridAccepts(c.name, c.json), c.accept)
            << c.name << ": " << c.json;
        covered.insert(c.name);
    }
    // The rows cover every flag, and only flags.
    const std::vector<std::string> flags =
        sweep::flagNames(sweep::FlagSurface::Net);
    EXPECT_EQ(std::vector<std::string>(covered.begin(), covered.end()),
              flags);
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

TEST(GridTest, RecordEscapesControlCharactersInTheTag)
{
    std::string err;
    const auto points = sweep::expandGridFile(
        "{\"schema\": \"sweep.grid.v1\", \"tag\": \"line1\\nline2\", "
        "\"base\": {\"ports\": 16, \"cycles\": 50}}",
        err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(points.size(), 1u);
    ASSERT_EQ(points[0].tag, "line1\nline2");
    const std::string merged = sweep::mergeSweepJson(
        {sweep::pointRecordJson(points[0], "{\"stats\": {}}\n")});
    jsonlite::JsonValue doc;
    ASSERT_NO_THROW(doc = jsonlite::parse(merged)) << merged;
    EXPECT_EQ(doc["points"].array.at(0)["tag"].string, "line1\nline2");
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
            EXPECT_EQ(doc["point_count"].number, 9.0);
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
    ASSERT_EQ(doc["points"].array.size(), 9u);
    // The embedded dump is a record's only copy of its metrics.
    for (const jsonlite::JsonValue &pt : doc["points"].array) {
        std::string keys;
        for (const auto &kv : pt.object)
            keys += (keys.empty() ? "" : ",") + kv.first;
        EXPECT_EQ(keys, "argv,index,params,stats,tag");
    }

    // Three representative points (uniform, hot-spot and hot-spot
    // with the latency observatory): replay each recorded argv through
    // the real ultrasim binary and demand the standalone --stats-json
    // bytes equal the sweep worker's.
    for (std::size_t index : {0ul, 5ul, 8ul}) {
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
