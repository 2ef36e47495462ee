/**
 * @file
 * End-to-end tests of the ultrasim command-line tool -- the first
 * coverage that actually executes the binary.  Runs `ultrasim net` and
 * `ultrasim app` as subprocesses, validates the --stats-json output
 * with the jsonlite parser, and checks from the outside that reruns
 * are byte-identical and that bad input exits 2 naming the flag.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json_lite.h"

#ifndef ULTRASIM_BIN
#error "build must define ULTRASIM_BIN (see tests/CMakeLists.txt)"
#endif
#ifndef ULTRASWEEP_BIN
#error "build must define ULTRASWEEP_BIN (see tests/CMakeLists.txt)"
#endif

namespace
{

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr ? dir : "/tmp") + "/ultrasim_cli_" +
           name;
}

/** Run a shell command and return the child's exit status. */
int
runCommand(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

int
runTool(const std::string &args)
{
    return runCommand(std::string(ULTRASIM_BIN) + " " + args +
                      " > /dev/null 2>&1");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(CliTest, NetStatsJsonIsValidAndComplete)
{
    const std::string out = tmpPath("net_stats.json");
    ASSERT_EQ(runTool("net --ports 64 --k 2 --cycles 1000 "
                      "--stats-json " +
                      out),
              0);
    const std::string text = readFile(out);
    ASSERT_FALSE(text.empty());
    const jsonlite::JsonValue doc = jsonlite::parse(text);
    ASSERT_TRUE(doc.isObject());
    const jsonlite::JsonValue &stats = doc["stats"];
    ASSERT_TRUE(stats.isObject());
    // The core Table-1 quantities must be present and sane.
    for (const char *key :
         {"net.injected", "net.delivered", "net.combined",
          "pni.requested", "pni.completed", "mem.executed"}) {
        ASSERT_TRUE(stats.has(key)) << key;
        EXPECT_GE(stats[key].number, 0.0) << key;
    }
    // Note: delivered can slightly exceed injected because the tool
    // resets stats after warmup while warmup messages are in flight.
    EXPECT_GT(stats["net.injected"].number, 0.0);
    EXPECT_GT(stats["net.delivered"].number, 0.0);
    std::remove(out.c_str());
}

TEST(CliTest, UnknownFlagsExitTwoWithUsage)
{
    const std::string err = tmpPath("unknown_flag.err");
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) +
                         " net --bogus > /dev/null 2> " + err),
              2);
    const std::string text = readFile(err);
    EXPECT_NE(text.find("unknown flag '--bogus'"), std::string::npos)
        << text;
    EXPECT_NE(text.find("usage:"), std::string::npos) << text;
    std::remove(err.c_str());

    // Every subcommand has its own allowlist: flags that are valid
    // elsewhere are still rejected where they make no sense.
    EXPECT_EQ(runTool("app --frobnicate"), 2);
    EXPECT_EQ(runTool("model --cycles 10"), 2);
    EXPECT_EQ(runTool("model --inspect 0"), 2);
    EXPECT_EQ(runTool("pack --k 4"), 2);
    EXPECT_EQ(runTool("trace --stats-json out.json"), 2);
}

TEST(CliTest, MalformedNumbersExitTwoNamingTheFlag)
{
    // Garbage, empty and out-of-range values must stop before any
    // simulation (exit 2, the flag named) -- never reach an assertion.
    const struct
    {
        const char *args;
        const char *flag;
    } cases[] = {
        {"net --cycles abc", "--cycles"},
        {"net --cycles ''", "--cycles"},
        {"net --cycles 12x", "--cycles"},
        {"net --cycles 99999999999999999999999", "--cycles"},
        {"net --rate 7", "--rate"},
        {"net --rate 0.1x", "--rate"},
        {"net --hot 2", "--hot"},
        {"net --ports 16 --k 2 --cycles 0", "cycles"},
        {"net --ports 4294967312 --k 2", "--ports"},
        {"app --pes abc", "--pes"},
        {"app --app tred2 --pes 0", "--pes"},
        {"app --app tred2 --pes 5000", "--pes"},
        {"app --app tred2 --n 0", "--n"},
        {"app --app tred2 --n 300", "--n"},
        {"app --app multigrid --n 1", "--n"},
        {"app --app sssp --n 1", "--n"},
        {"app --app tred2 --pes 16 --contexts 3", "--contexts"},
        {"model --best --rate 1.5", "--rate"},
    };
    const std::string err = tmpPath("bad_number.err");
    for (const auto &c : cases) {
        EXPECT_EQ(runCommand(std::string(ULTRASIM_BIN) + " " + c.args +
                             " > /dev/null 2> " + err),
                  2)
            << c.args;
        const std::string text = readFile(err);
        EXPECT_NE(text.find(c.flag), std::string::npos)
            << c.args << ": " << text;
        EXPECT_EQ(text.find("panic"), std::string::npos)
            << c.args << ": " << text;
    }
    std::remove(err.c_str());
    // The boundaries are legal, and a PE count that is not a power of
    // two gets the next power-of-two machine.
    EXPECT_EQ(runTool("net --ports 16 --rate 0 --hot 1 --cycles 50"), 0);
    EXPECT_EQ(runTool("net --ports 16 --k 2 --cycles 1"), 0);
    EXPECT_EQ(runTool("app --app tred2 --pes 1 --n 2"), 0);
    EXPECT_EQ(runTool("app --app weather --pes 20 --n 4"), 0);
}

TEST(CliTest, FailedOutputWritesExitOne)
{
    // An unwritable path must fail the run, not print and exit 0.
    const std::string bad = "/nonexistent-dir/out";
    for (const char *opt :
         {"--stats-json", "--prof-json", "--latency-json",
          "--heatmap-csv", "--trace-events"}) {
        EXPECT_EQ(runTool(std::string("net --ports 16 --cycles 50 ") +
                          opt + " " + bad),
                  1)
            << "net " << opt;
        EXPECT_EQ(runTool(std::string("app --app tred2 --n 4 --pes 2 ") +
                          opt + " " + bad),
                  1)
            << "app " << opt;
    }
    EXPECT_EQ(runTool("net --ports 16 --cycles 50 --sample-every 10 "
                      "--sample-out " +
                      bad),
              1);
    EXPECT_EQ(runTool("app --app tred2 --n 4 --pes 2 --sample-every 10 "
                      "--sample-out " +
                      bad),
              1);
}

TEST(CliTest, ProfJsonLeavesSimulationOutputByteIdentical)
{
    // The profiler's write-only-to-its-own-channel contract: the same
    // workload with and without --prof-json dumps byte-identical
    // stats, for the network and for a whole machine.
    const std::string base = tmpPath("prof_off.json");
    const std::string probed = tmpPath("prof_on.json");
    const std::string prof = tmpPath("prof_report.json");
    for (const char *common :
         {"net --ports 64 --k 2 --rate 0.15 --hot 0.05 --cycles 1500 ",
          "app --app tred2 --n 12 --pes 8 "}) {
        ASSERT_EQ(runTool(std::string(common) + "--stats-json " + base),
                  0);
        ASSERT_EQ(runTool(std::string(common) + "--stats-json " +
                          probed + " --prof-json " + prof),
                  0);
        const std::string base_text = readFile(base);
        ASSERT_FALSE(base_text.empty());
        EXPECT_EQ(base_text, readFile(probed))
            << "--prof-json must not perturb simulation output: "
            << common;
        EXPECT_FALSE(readFile(prof).empty());
    }
    std::remove(base.c_str());
    std::remove(probed.c_str());
    std::remove(prof.c_str());
}

TEST(CliTest, ProfJsonCoversMeasuredWallOnTable1)
{
    // The acceptance bar: on the Table-1 network the per-phase wall
    // timers must account for >= 95% of the measured elapsed time --
    // anything less means a phase boundary is missing a lap stamp.
    const std::string prof = tmpPath("prof_table1.json");
    ASSERT_EQ(runTool("net --ports 4096 --k 4 --queue 15 --rate 0.1 "
                      "--cycles 300 --prof-json " +
                      prof),
              0);
    const std::string text = readFile(prof);
    ASSERT_FALSE(text.empty());
    const jsonlite::JsonValue doc = jsonlite::parse(text);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["schema"].string, "ultra.prof.v2");

    const double elapsed = doc["elapsed_seconds"].number;
    ASSERT_GT(elapsed, 0.0);
    double phase_sum = 0.0;
    for (const auto &[name, phase] : doc["phases"].object) {
        (void)name;
        phase_sum += phase["seconds"].number;
    }
    EXPECT_GE(phase_sum, 0.95 * elapsed)
        << "phase timers cover only " << (phase_sum / elapsed)
        << " of the measured wall";
    EXPECT_LE(phase_sum, elapsed * 1.001);
    EXPECT_GE(doc["attribution"]["coverage"].number, 0.95);
    // Traffic injection is timed as its own phase.
    EXPECT_GT(doc["phases"]["inject"]["calls"].number, 0.0);
    std::remove(prof.c_str());
}

TEST(CliTest, StatsJsonByteStableAcrossRunsAndSorted)
{
    const std::string first = tmpPath("stable_a.json");
    const std::string second = tmpPath("stable_b.json");
    const std::string common =
        "net --ports 64 --k 2 --rate 0.1 --cycles 1000 --stats-json ";
    ASSERT_EQ(runTool(common + first), 0);
    ASSERT_EQ(runTool(common + second), 0);
    const std::string text = readFile(first);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text, readFile(second))
        << "repeated identical runs must dump byte-identical stats";
    // The dump is sorted by key, so it diffs cleanly when statistics
    // are added or code is reordered.
    const jsonlite::JsonValue doc = jsonlite::parse(text);
    std::string prev;
    std::size_t keys = 0;
    for (const auto &[key, value] : doc["stats"].object) {
        (void)value;
        EXPECT_LT(prev, key);
        prev = key;
        ++keys;
    }
    EXPECT_GT(keys, 10u);
    // Default is compact (one line per the whole stats object);
    // --stats-pretty restores one-entry-per-line.
    EXPECT_EQ(text.find("\n  "), std::string::npos);
    const std::string pretty = tmpPath("stable_pretty.json");
    ASSERT_EQ(runTool(common + pretty + " --stats-pretty"), 0);
    const std::string pretty_text = readFile(pretty);
    EXPECT_NE(pretty_text.find("\n"), std::string::npos);
    EXPECT_NE(pretty_text, text);
    // Same content either way.
    EXPECT_EQ(jsonlite::parse(pretty_text)["stats"].object.size(),
              keys);
    std::remove(first.c_str());
    std::remove(second.c_str());
    std::remove(pretty.c_str());
}

TEST(CliTest, LatencyJsonReportsDecompositionAndModel)
{
    const std::string out = tmpPath("latency.json");
    ASSERT_EQ(runTool("net --ports 64 --k 2 --rate 0.15 --hot 0.1 "
                      "--cycles 2000 --latency-json " +
                      out),
              0);
    const std::string text = readFile(out);
    ASSERT_FALSE(text.empty());
    const jsonlite::JsonValue doc = jsonlite::parse(text);
    ASSERT_TRUE(doc.isObject());
    EXPECT_GT(doc["requests"]["delivered"].number, 0.0);
    EXPECT_EQ(doc["requests"]["violations"].number, 0.0)
        << "stage components must sum to end-to-end for every record";
    EXPECT_GT(doc["combining"]["combined_delivered"].number, 0.0)
        << "hot-spot run must combine";
    ASSERT_TRUE(doc["waits"]["stages"].isArray());
    EXPECT_FALSE(doc["waits"]["stages"].array.empty());
    ASSERT_TRUE(doc.has("model"));
    // Combining run: the Kruskal-Snir check must report itself
    // non-applicable rather than fake a verdict.
    EXPECT_FALSE(doc["model"]["applicable"].boolean);
    std::remove(out.c_str());
}

TEST(CliTest, HeatmapCsvCoversBothDirections)
{
    const std::string out = tmpPath("heatmap.csv");
    ASSERT_EQ(runTool("net --ports 64 --k 2 --rate 0.1 --cycles 1000 "
                      "--heatmap-csv " +
                      out),
              0);
    const std::string text = readFile(out);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.find("direction,stage,switch,visits,wait_cycles,"
                        "mean_wait,combines"),
              0u);
    EXPECT_NE(text.find("\nfwd,"), std::string::npos);
    EXPECT_NE(text.find("\nrev,"), std::string::npos);
    std::remove(out.c_str());
}

TEST(CliTest, CheckDriftPassesOnConformingConfig)
{
    // A Fig-7-style model-conforming configuration must track the
    // analytic prediction (exit 0); a combining hot-spot run violates
    // the model's assumptions and must be rejected as non-applicable
    // (exit 2), not silently scored.
    EXPECT_EQ(runTool("net --ports 256 --k 4 --m 4 --uniform "
                      "--policy none --queue 0 --rate 0.15 "
                      "--cycles 3000 --check-drift"),
              0);
    EXPECT_EQ(runTool("net --ports 64 --k 2 --rate 0.15 --hot 0.2 "
                      "--cycles 1000 --check-drift"),
              2);
}

TEST(CliTest, UltrascopeAnalyzesTrace)
{
    const std::string trace = tmpPath("scope_trace.json");
    ASSERT_EQ(runTool("net --ports 64 --k 2 --rate 0.15 --hot 0.1 "
                      "--cycles 800 --trace-events " +
                      trace),
              0);
    const std::string report = tmpPath("scope_report.txt");
    const std::string cmd = std::string(ULTRASCOPE_BIN) + " " + trace +
                            " --top 5 --slowest 5 > " + report +
                            " 2>&1";
    ASSERT_EQ(runCommand(cmd), 0);
    const std::string text = readFile(report);
    EXPECT_NE(text.find("top congested lanes"), std::string::npos);
    EXPECT_NE(text.find("combine forest"), std::string::npos)
        << "hot-spot trace must contain combine events";
    EXPECT_NE(text.find("slowest request paths"), std::string::npos);
    // Malformed input is a clean failure, not a crash.
    const std::string junk = tmpPath("scope_junk.json");
    std::ofstream(junk) << "{ not json";
    const std::string junk_cmd = std::string(ULTRASCOPE_BIN) + " " +
                                 junk + " > /dev/null 2>&1";
    EXPECT_EQ(runCommand(junk_cmd), 2);
    std::remove(trace.c_str());
    std::remove(report.c_str());
    std::remove(junk.c_str());
}

TEST(CliTest, BadSubcommandFails)
{
    EXPECT_NE(runTool("frobnicate"), 0);
}

TEST(CliTest, NetSeedFlagIsDeterministic)
{
    // --seed rides the net allowlist: same seed, same bytes; a
    // different seed must actually steer the traffic generator.
    const std::string a = tmpPath("seed_a.json");
    const std::string b = tmpPath("seed_b.json");
    const std::string c = tmpPath("seed_c.json");
    const std::string common =
        "net --ports 16 --k 2 --cycles 300 --rate 0.1 --stats-json ";
    ASSERT_EQ(runTool(common + a + " --seed 42"), 0);
    ASSERT_EQ(runTool(common + b + " --seed 42"), 0);
    ASSERT_EQ(runTool(common + c + " --seed 43"), 0);
    const std::string bytes = readFile(a);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(readFile(b), bytes) << "same seed must reproduce bytes";
    EXPECT_NE(readFile(c), bytes) << "different seed changed nothing";
    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

TEST(CliTest, ServeRejectsBadInvocations)
{
    const std::string err = tmpPath("serve_usage.err");
    // No address operand.
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) +
                         " serve > /dev/null 2> " + err),
              2);
    EXPECT_NE(readFile(err).find("usage:"), std::string::npos)
        << readFile(err);
    // A flag where the address belongs.
    EXPECT_EQ(runTool("serve --cache 2"), 2);
    // Unknown flags honor the allowlist convention.
    EXPECT_EQ(runTool("serve 0 --frobnicate 1"), 2);
    std::remove(err.c_str());
}

TEST(CliTest, UltrasweepRejectsBadInvocations)
{
    const std::string err = tmpPath("sweep_usage.err");
    // Unknown flag.
    ASSERT_EQ(runCommand(std::string(ULTRASWEEP_BIN) +
                         " --frobnicate > /dev/null 2> " + err),
              2);
    const std::string text = readFile(err);
    EXPECT_NE(text.find("unknown flag '--frobnicate'"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("usage:"), std::string::npos) << text;

    // --grid is required; a missing or malformed grid file is exit 2.
    EXPECT_EQ(runCommand(std::string(ULTRASWEEP_BIN) +
                         " > /dev/null 2>&1"),
              2);
    EXPECT_EQ(runCommand(std::string(ULTRASWEEP_BIN) +
                         " --grid /no/such/grid.json > /dev/null 2>&1"),
              2);
    const std::string junk = tmpPath("sweep_junk_grid.json");
    std::ofstream(junk) << "{ not json";
    EXPECT_EQ(runCommand(std::string(ULTRASWEEP_BIN) + " --grid " +
                         junk + " > /dev/null 2>&1"),
              2);
    // Well-formed JSON with a typo'd parameter is still exit 2: a
    // typo must never become a default-configured sweep.
    std::ofstream(junk) << "{\"schema\": \"sweep.grid.v1\", \"grids\":"
                           " [{\"base\": {\"protz\": 16}}]}";
    EXPECT_EQ(runCommand(std::string(ULTRASWEEP_BIN) + " --grid " +
                         junk + " > /dev/null 2>&1"),
              2);
    std::remove(junk.c_str());
    std::remove(err.c_str());
}

TEST(CliTest, UltrascopeSweepModeRendersAndRejects)
{
    // A real two-point sweep renders a per-point table...
    const std::string grid = tmpPath("scope_sweep_grid.json");
    std::ofstream(grid)
        << "{\"schema\": \"sweep.grid.v1\", \"grids\": [{\"tag\": "
           "\"mini\", \"base\": {\"ports\": 16, \"k\": 2, \"cycles\": "
           "200}, \"axes\": {\"rate\": [0.05, 0.1]}}]}";
    const std::string out = tmpPath("scope_sweep.json");
    const std::string dir = out + ".points.d";
    ASSERT_EQ(runCommand(std::string(ULTRASWEEP_BIN) + " --grid " +
                         grid + " --out " + out + " --points-dir " +
                         dir + " > /dev/null 2>&1"),
              0);
    const std::string report = tmpPath("scope_sweep_report.txt");
    ASSERT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --sweep " +
                         out + " > " + report + " 2>&1"),
              0);
    const std::string text = readFile(report);
    EXPECT_NE(text.find("mini"), std::string::npos) << text;
    EXPECT_NE(text.find("2 points"), std::string::npos) << text;

    // ...while non-sweep input and a missing operand are exit 2.
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --sweep " +
                         grid + " > /dev/null 2>&1"),
              2)
        << "a grid file is not a sweep.v1 result";
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) +
                         " --sweep > /dev/null 2>&1"),
              2);
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) +
                         " --sweep /no/such/sweep.json"
                         " > /dev/null 2>&1"),
              2);

    runCommand("rm -rf " + dir);
    std::remove(grid.c_str());
    std::remove(out.c_str());
    std::remove(report.c_str());
}

} // namespace
