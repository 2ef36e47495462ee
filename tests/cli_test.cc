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
#include <unistd.h>

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
#ifndef ULTRACHECK_BIN
#error "build must define ULTRACHECK_BIN (see tests/CMakeLists.txt)"
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

/** Run @p cmd, expecting exit 2 and a message naming @p flag (never a
 *  panic). */
void
expectRejected(const std::string &cmd, const std::string &flag)
{
    const std::string err =
        tmpPath("rejected_" + std::to_string(::getpid()) + ".err");
    EXPECT_EQ(runCommand(cmd + " > /dev/null 2> " + err), 2) << cmd;
    const std::string text = readFile(err);
    EXPECT_NE(text.find(flag), std::string::npos) << cmd << ": " << text;
    EXPECT_EQ(text.find("panic"), std::string::npos) << cmd << ": " << text;
    std::remove(err.c_str());
}

/** A one-point grid, written to @p name, that simulates in
 *  milliseconds. */
std::string
tinyGrid(const std::string &name)
{
    const std::string grid = tmpPath(name);
    std::ofstream(grid) << "{\"schema\": \"sweep.grid.v1\", \"base\": "
                           "{\"ports\": 16, \"cycles\": 50}}";
    return grid;
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
        {"net --ports 16 --cycles 50 --closed 0", "--closed"},
        {"net --policy bogus", "policy"},
        // One port is a power of every k but leaves no stage to build.
        {"net --ports 1 --cycles 10", "ports must be a power of k"},
        {"trace --replay /dev/null --ports 1", "ports must be a power of k"},
        // A boolean flag takes no value.
        {"net --uniform 5", "--uniform"},
        {"app --pes abc", "--pes"},
        {"app --app tred2 --pes 0", "--pes"},
        {"app --app tred2 --pes 5000", "--pes"},
        {"app --app tred2 --n 0", "--n"},
        {"app --app tred2 --n 300", "--n"},
        {"app --app multigrid --n 1", "--n"},
        {"app --app sssp --n 1", "--n"},
        {"app --app tred2 --pes 16 --contexts 3", "--contexts"},
        // Only tred2 multiprograms its workers; another app exits 2
        // rather than ignore the flag.
        {"app --app weather --contexts 4", "--contexts"},
        {"trace --record /dev/null --app sssp --contexts 5", "--contexts"},
        {"model --best --rate 1.5", "--rate"},
        {"model --best --ports 5 --rate 0.1", "--ports"},
        {"model --best --ports 1", "--ports"},
        {"model --ports 5", "--ports expects a power of --k"},
        {"model --ports 1", "--ports expects a power of --k"},
        {"model --k 3", "--k expects a power of two >= 2"},
        {"model --k 1", "--k expects a power of two >= 2"},
        {"model --m 0", "--m"},
        {"model --d 0", "--d"},
        // Each `model` form takes only the flags it reads.
        {"model --best --k 4 --rate 0.1", "--k"},
        {"model --best --m 2 --rate 0.1", "--m"},
        {"model --best --d 2 --rate 0.1", "--d"},
        {"model --budget 5 --ports 16", "--budget"},
        {"model --rate 0.3 --ports 16", "--rate"},
        // --latency is a boolean net parameter and an `app` flag;
        // `trace --replay` takes only the network flags.
        {"net --ports 16 --cycles 50 --latency 1", "--latency"},
        {"app --app tred2 --pes 2 --n 4 --latency yes", "--latency"},
        {"trace --replay /dev/null --latency", "--latency"},
        // An observer flag that would do nothing exits 2 as well:
        // --check-drift is net-only and needs a positive tolerance,
        // and each flag below needs its partner.
        {"app --app tred2 --pes 2 --n 4 --check-drift 0.01",
         "--check-drift"},
        {"net --ports 16 --cycles 50 --check-drift 0", "--check-drift"},
        {"net --ports 16 --cycles 50 --sample-out /dev/null",
         "--sample-out"},
        {"app --app tred2 --pes 2 --n 4 --sample-out /dev/null",
         "--sample-out"},
        {"net --ports 16 --cycles 50 --sample-every 10", "--sample-every"},
        {"app --app tred2 --pes 2 --n 4 --sample-every 10",
         "--sample-every"},
        {"net --ports 16 --cycles 50 --sample-every 0 --sample-out "
         "/dev/null",
         "--sample-every"},
        {"net --ports 16 --cycles 50 --stats-pretty", "--stats-pretty"},
        {"app --app tred2 --pes 2 --n 4 --stats-pretty", "--stats-pretty"},
        {"net --ports 16 --cycles 50 --heatmap-csv /dev/null",
         "--heatmap-csv"},
        {"app --app tred2 --pes 2 --n 4 --heatmap-csv /dev/null",
         "--heatmap-csv"},
        // `trace --record` runs the same checks as `app`.
        {"trace --record /dev/null --app tred2 --n 1", "--n"},
        {"trace --record /dev/null --pes 0", "--pes"},
        {"trace --record /dev/null --app weather --n 0", "--n"},
        {"trace --record /dev/null --app tred2 --n 300", "--n"},
        // `--record` takes only the app flags, `--replay` only the
        // network ones, and never both at once.
        {"trace --record /dev/null --app tred2 --pes 16 --n 16 --k 4",
         "--k"},
        {"trace --record /dev/null --app tred2 --pes 16 --n 16 --ideal",
         "--ideal"},
        {"trace --record /dev/null --replay /dev/null", "--replay"},
        {"trace --replay /dev/null --app weather", "--app"},
        {"trace --replay /dev/null --pes 3", "--pes"},
        {"trace --replay /dev/null --n 99", "--n"},
        {"pack --ports 0", "--ports must be a power of two >= 4"},
        {"pack --ports 12", "--ports must be a power of two >= 4"},
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
    EXPECT_EQ(runTool("app --app tred2 --pes 4 --n 4 --contexts 2"), 0);
    EXPECT_EQ(runTool("app --app weather --pes 20 --n 4"), 0);
    EXPECT_EQ(runTool("trace --record /dev/null --pes 100 --n 4"), 0);
    EXPECT_EQ(runTool("pack --ports 4"), 0);
    EXPECT_EQ(runTool("model --best --ports 16 --rate 0.1 --budget 50"), 0);
    EXPECT_EQ(runTool("model --ports 16 --k 2 --m 2 --d 1"), 0);
}

TEST(CliTest, TraceReplayRejectsBadFilesNamingTheLine)
{
    // A replay file that does not parse, stops parsing part-way or
    // names a PE or address the network lacks exits 2 naming the file
    // and line; it never replays a prefix and never reaches an
    // assertion.
    const std::string trace = tmpPath("replay.csv");
    const std::string err = tmpPath("replay.err");
    const struct
    {
        const char *text;
        const char *where;
    } cases[] = {
        {"\x8f\x03zq\xff\x01,,\x7f\n\x10", ":1: "},
        {"0,1,0,5,0\n1,2,0,6,0\n#garbage\n3,1,0,5,0\n", ":3: "},
        {"0,1,0,5,0\n1,16,0,6,0\n", ":2: PE 16"},
        {"0,1,0,262144,0\n", ":1: address 262144"},
    };
    for (const auto &c : cases) {
        std::ofstream(trace, std::ios::binary) << c.text;
        EXPECT_EQ(runCommand(std::string(ULTRASIM_BIN) + " trace --replay " +
                             trace + " --ports 16 > /dev/null 2> " + err),
                  2)
            << c.text;
        const std::string text = readFile(err);
        EXPECT_NE(text.find(trace + c.where), std::string::npos) << text;
        EXPECT_EQ(text.find("panic"), std::string::npos) << text;
    }
    // The well-formed prefix of the truncated case replays.
    std::ofstream(trace, std::ios::binary) << "0,1,0,5,0\n1,2,0,6,0\n";
    EXPECT_EQ(runTool("trace --replay " + trace + " --ports 16"), 0);
    std::remove(trace.c_str());
    std::remove(err.c_str());
}

TEST(CliTest, FailedOutputWritesExitOne)
{
    // An unwritable path must fail the run, not print and exit 0.
    const std::string bad = "/nonexistent-dir/out";
    for (const char *opt : {"--stats-json", "--prof-json",
                            "--latency --heatmap-csv", "--trace-events"}) {
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
    // A full device fails at write or close, not at open.
    EXPECT_EQ(runTool("trace --record /dev/full --pes 2 --n 4"), 1);
    EXPECT_EQ(runTool("trace --record " + bad + " --pes 2 --n 4"), 1);

    // ultrasweep's merged output obeys the same rule.
    const std::string grid = tinyGrid("full_sweep_grid.json");
    const std::string dir = tmpPath("full_sweep.points.d");
    const std::string err = tmpPath("full_sweep.err");
    for (const std::string &out : {std::string("/dev/full"), bad}) {
        EXPECT_EQ(runCommand(std::string(ULTRASWEEP_BIN) + " --grid " +
                             grid + " --out " + out + " --points-dir " +
                             dir + " > /dev/null 2> " + err),
                  1)
            << out;
        EXPECT_NE(readFile(err).find("--out " + out), std::string::npos)
            << readFile(err);
    }
    runCommand("rm -rf " + dir);
    std::remove(grid.c_str());
    std::remove(err.c_str());
}

TEST(CliTest, ProfJsonLeavesSimulationOutputByteIdentical)
{
    // The observers' write-only-to-their-own-channel contract: the same
    // workload with and without each byte-neutral observer (sampler,
    // event trace, profiler, and all of them at once) dumps
    // byte-identical stats, for the network and for a whole machine.
    // The sampler's last row is the run's final cycle on both.
    const std::string base = tmpPath("observed_off.json");
    const std::string probed = tmpPath("observed_on.json");
    const std::string samples = tmpPath("observed_samples.csv");
    const std::string trace = tmpPath("observed_trace.json");
    const std::string prof = tmpPath("observed_prof.json");
    const std::string sampling = " --sample-every 10 --sample-out " + samples;
    const std::string tracing = " --trace-events " + trace;
    const std::string profiling = " --prof-json " + prof;
    for (const char *common :
         {"net --ports 64 --k 2 --rate 0.15 --hot 0.05 --cycles 1503 ",
          "app --app tred2 --n 12 --pes 8 "}) {
        ASSERT_EQ(runTool(std::string(common) + "--stats-json " + base),
                  0);
        const std::string base_text = readFile(base);
        ASSERT_FALSE(base_text.empty());
        for (const std::string &observers :
             {sampling, tracing, profiling,
              sampling + tracing + profiling}) {
            ASSERT_EQ(runTool(std::string(common) + "--stats-json " +
                              probed + observers),
                      0);
            EXPECT_EQ(base_text, readFile(probed))
                << "observers must not perturb simulation output: "
                << common << observers;
        }
        EXPECT_FALSE(readFile(trace).empty()) << common;
        EXPECT_FALSE(readFile(prof).empty()) << common;

        const std::string csv = readFile(samples);
        const std::size_t last = csv.rfind('\n', csv.size() - 2);
        ASSERT_NE(last, std::string::npos) << common;
        const double final_cycle =
            jsonlite::parse(base_text)["cycle"].number;
        EXPECT_GT(final_cycle, 0.0) << common;
        EXPECT_EQ(std::stod(csv.substr(last + 1)), final_cycle)
            << "the last sample row must be the run's final cycle: "
            << common;
    }
    for (const std::string &path : {base, probed, samples, trace, prof})
        std::remove(path.c_str());
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
    // --latency puts the observatory's lat.* keys in the stats dump,
    // next to the model.* cross-check.
    const std::string out = tmpPath("latency.json");
    ASSERT_EQ(runTool("net --ports 64 --k 2 --rate 0.15 --hot 0.1 "
                      "--cycles 2000 --latency --stats-json " +
                      out),
              0);
    const std::string text = readFile(out);
    ASSERT_FALSE(text.empty());
    const jsonlite::JsonValue stats = jsonlite::parse(text)["stats"];
    ASSERT_TRUE(stats.isObject());
    EXPECT_GT(stats["lat.delivered"].number, 0.0);
    EXPECT_EQ(stats["lat.violations"].number, 0.0)
        << "stage components must sum to end-to-end for every record";
    EXPECT_GT(stats["lat.combined_delivered"].number, 0.0)
        << "hot-spot run must combine";
    EXPECT_GT(stats["lat.stage0.fwd_wait_hist"]["count"].number, 0.0);
    // Combining run: the Kruskal-Snir check must report itself
    // non-applicable rather than fake a verdict.
    EXPECT_EQ(stats["model.applicable"].number, 0.0);
    // A network run has no PEs, so no PE-wait histogram.
    EXPECT_FALSE(stats.has("lat.pe_wait_hist"));

    // On `app` the PEs' memory-wait spans join the lat.* keys, and
    // without --latency there are none.
    const std::string app = "app --app tred2 --pes 8 --n 12 --stats-json ";
    ASSERT_EQ(runTool(app + out + " --latency"), 0);
    const jsonlite::JsonValue app_stats =
        jsonlite::parse(readFile(out))["stats"];
    EXPECT_EQ(app_stats["lat.violations"].number, 0.0);
    EXPECT_GT(app_stats["lat.pe_wait_hist"]["count"].number, 0.0);
    ASSERT_EQ(runTool(app + out), 0);
    EXPECT_EQ(readFile(out).find("\"lat."), std::string::npos);
    std::remove(out.c_str());
}

TEST(CliTest, HeatmapCsvCoversBothDirections)
{
    const std::string out = tmpPath("heatmap.csv");
    ASSERT_EQ(runTool("net --ports 64 --k 2 --rate 0.1 --cycles 1000 "
                      "--latency --heatmap-csv " +
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

    // The gate reads the model.* keys every run has; it adds none.
    const std::string plain = tmpPath("drift_plain.json");
    const std::string gated = tmpPath("drift_gated.json");
    const std::string common = "net --ports 16 --k 2 --uniform --policy "
                               "none --queue 0 --rate 0.05 --cycles 500 "
                               "--stats-json ";
    ASSERT_EQ(runTool(common + plain), 0);
    ASSERT_EQ(runTool(common + gated + " --check-drift 0.5"), 0);
    EXPECT_FALSE(readFile(plain).empty());
    EXPECT_EQ(readFile(plain), readFile(gated));
    std::remove(plain.c_str());
    std::remove(gated.c_str());
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

TEST(CliTest, UltrascopeNumericFlagsAreStrict)
{
    // Garbage never becomes a count of 0, a 2 s fallback or a 0 ms
    // timeout; the flags are checked before any file or socket.
    const std::string scope = std::string(ULTRASCOPE_BIN) + " ";
    expectRejected(scope + "T.json --top abc", "--top");
    expectRejected(scope + "T.json --slowest 3x", "--slowest");
    expectRejected(scope + "--attach 0 --watch abc", "--watch");
    expectRejected(scope + "--attach 0 --watch 0", "--watch");
    expectRejected(scope + "--attach 0 --timeout abc", "--timeout");
}

TEST(CliTest, BadSubcommandFails)
{
    EXPECT_NE(runTool("frobnicate"), 0);
    // There is no job server: `serve` is an unknown subcommand.
    const std::string err = tmpPath("serve_usage.err");
    for (const char *args : {" serve 0", " --serve 0"}) {
        EXPECT_EQ(runCommand(std::string(ULTRASIM_BIN) + args +
                             " > /dev/null 2> " + err),
                  2)
            << args;
        EXPECT_NE(readFile(err).find("usage:"), std::string::npos)
            << args << ": " << readFile(err);
    }
    std::remove(err.c_str());
}

TEST(CliTest, NetSeedFlagIsDeterministic)
{
    // --seed is a net parameter: same seed, same bytes; a
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
    // Nesting past the JSON parser's cap is a syntax error too.
    std::ofstream(junk) << std::string(100000, '[');
    expectRejected(std::string(ULTRASWEEP_BIN) + " --grid " + junk,
                   "nested deeper than 64");
    std::remove(junk.c_str());
    std::remove(err.c_str());

    // Numbers are strict: garbage and values that would be clamped
    // exit 2 naming the flag, as does a value on a boolean flag.
    const std::string grid = tinyGrid("strict_sweep_grid.json");
    const std::string sweep =
        std::string(ULTRASWEEP_BIN) + " --grid " + grid + " ";
    expectRejected(sweep + "--workers abc", "--workers");
    expectRejected(sweep + "--workers 0", "--workers");
    expectRejected(sweep + "--retries 0", "--retries");
    expectRejected(sweep + "--timeout-s 1x", "--timeout-s");
    expectRejected(sweep + "--list 1", "--list");
    std::remove(grid.c_str());
}

TEST(CliTest, UltracheckRejectsBadInvocations)
{
    // A typo'd flag or a malformed number must not run the default
    // suites, nor turn into a budget of 0 states reported as
    // violations.
    const std::string check = std::string(ULTRACHECK_BIN) + " ";
    expectRejected(check + "--sute fa", "--sute");
    expectRejected(check + "--max-states abc", "--max-states");
    expectRejected(check + "--max-states 0", "--max-states");
    expectRejected(check + "--random-walks 5x", "--random-walks");
    expectRejected(check + "--pes 5", "--pes");
    expectRejected(check + "--suite bogus", "--suite");
    expectRejected(check + "--demo-bug 1", "--demo-bug");
    // The smallest well-formed run still verifies.
    EXPECT_EQ(runCommand(check + "--suite fa --pes 2 --random-walks 5 "
                                 "> /dev/null 2>&1"),
              0);
}

TEST(CliTest, UltracheckRandomWalksLeaveExhaustiveCountAlone)
{
    // `states=` is the exhaustive count; the walks' steps print in
    // their own field.
    const std::string out = tmpPath("check_walks.txt");
    const std::string check =
        std::string(ULTRACHECK_BIN) + " --suite fa --pes 2";
    ASSERT_EQ(runCommand(check + " > " + out), 0);
    const std::string plain = readFile(out);
    ASSERT_EQ(runCommand(check + " --random-walks 10 > " + out), 0);
    const std::string walked = readFile(out);
    std::remove(out.c_str());

    const auto field = [](const std::string &text,
                          const std::string &key) {
        const std::size_t at = text.find(" " + key + "=");
        if (at == std::string::npos)
            return std::string();
        const std::size_t from = at + key.size() + 2;
        return text.substr(from, text.find_first_of(" \n", from) - from);
    };
    ASSERT_FALSE(field(plain, "states").empty()) << plain;
    EXPECT_EQ(field(walked, "states"), field(plain, "states")) << walked;
    EXPECT_TRUE(field(plain, "walk_steps").empty()) << plain;
    EXPECT_FALSE(field(walked, "walk_steps").empty()) << walked;
}

TEST(CliTest, UltrascopeSweepModeRendersAndRejects)
{
    // A real four-point sweep renders a per-point table...
    const std::string grid = tmpPath("scope_sweep_grid.json");
    std::ofstream(grid)
        << "{\"schema\": \"sweep.grid.v1\", \"grids\": [{\"tag\": "
           "\"mini\", \"base\": {\"ports\": 16, \"k\": 2, \"cycles\": "
           "200}, \"axes\": {\"rate\": [0.05, 0.1]}}, {\"tag\": "
           "\"defaults\", \"base\": {\"ports\": 16, \"cycles\": 200, "
           "\"hot\": 0.2, \"latency\": true}}, {\"tag\": \"closed\", "
           "\"base\": {\"ports\": 16, \"cycles\": 200, \"closed\": 1}}]}";
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
    EXPECT_NE(text.find("4 points"), std::string::npos) << text;
    // Each row's config columns are its point's resolved parameters
    // (m defaults to k, rate to 0.1 and to "-" on a closed-loop point),
    // and its delivered, one-way and rt-mean columns are its point's
    // stats-dump values.
    const jsonlite::JsonValue doc = jsonlite::parse(readFile(out));
    std::istringstream lines(text);
    std::string line;
    std::getline(lines, line); // "<path>: 4 points"
    std::getline(lines, line); // column header
    for (const jsonlite::JsonValue &pt : doc["points"].array) {
        ASSERT_TRUE(std::getline(lines, line)) << text;
        std::istringstream row(line);
        std::string col[12];
        for (std::string &c : col)
            row >> c;
        const jsonlite::JsonValue &stats = pt["stats"]["stats"];
        char want[64];
        std::snprintf(want, sizeof want, "%.0f %.2f %.2f",
                      stats["net.delivered"].number,
                      stats["net.one_way_transit"]["mean"].number,
                      stats["net.round_trip"]["mean"].number);
        EXPECT_EQ(col[8] + " " + col[9] + " " + col[10], want) << line;
        const jsonlite::JsonValue &params = pt["params"];
        char rate[32] = "-";
        if (!params.has("closed")) {
            std::snprintf(rate, sizeof rate, "%.3f",
                          params.has("rate") ? params["rate"].number : 0.1);
        }
        std::snprintf(want, sizeof want, "16 2 2 1 %s %.2f", rate,
                      params.has("hot") ? params["hot"].number : 0.0);
        EXPECT_EQ(col[2] + " " + col[3] + " " + col[4] + " " + col[5] +
                      " " + col[6] + " " + col[7],
                  want)
            << line;
    }

    // ...while non-sweep input, a point whose parameters do not
    // resolve and a missing operand are exit 2.
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --sweep " +
                         grid + " > /dev/null 2>&1"),
              2)
        << "a grid file is not a sweep.v1 result";
    const std::string bogus = tmpPath("scope_sweep_bogus.json");
    std::ofstream(bogus) << "{\"schema\": \"sweep.v1\", \"points\": "
                            "[{\"index\": 0, \"params\": {\"policy\": "
                            "\"bogus\"}, \"stats\": {\"stats\": {}}}]}";
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --sweep " +
                         bogus + " > /dev/null 2>&1"),
              2)
        << "an unknown policy does not resolve";
    std::remove(bogus.c_str());
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
