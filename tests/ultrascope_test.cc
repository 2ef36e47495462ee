/**
 * @file
 * End-to-end tests of the ultrascope tool, both personalities:
 *
 *   - offline: `ultrasim ... --trace-events FILE` then
 *     `ultrascope FILE`, asserting the congestion / combine-forest /
 *     slow-path report appears and the tool exits 0;
 *   - live: `ultrasim net --inspect SOCKET` in the background, a
 *     scripted `ultrascope --attach` session (arm a cycle watchpoint,
 *     dump a switch, resume to completion, detach), and the headline
 *     guarantee from the outside -- the attached run's --stats-json is
 *     byte-identical to an unattached run's.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#ifndef ULTRASIM_BIN
#error "build must define ULTRASIM_BIN (see tests/CMakeLists.txt)"
#endif
#ifndef ULTRASCOPE_BIN
#error "build must define ULTRASCOPE_BIN (see tests/CMakeLists.txt)"
#endif

namespace
{

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr ? dir : "/tmp") + "/ultrascope_" +
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

/** Poll until @p path exists and is non-empty (children write it). */
bool
awaitFile(const std::string &path, int timeout_ms)
{
    for (int waited = 0; waited < timeout_ms; waited += 50) {
        if (!readFile(path).empty())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

/** Poll until @p path appears on disk (the inspect socket). */
bool
awaitPath(const std::string &path, int timeout_ms)
{
    for (int waited = 0; waited < timeout_ms; waited += 50) {
        if (::access(path.c_str(), F_OK) == 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

TEST(UltrascopeTest, OfflineTraceReport)
{
    const std::string trace = tmpPath("trace.json");
    const std::string report = tmpPath("report.txt");
    // A hot-spot run guarantees combines, so every report section has
    // something to say.
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) +
                         " net --ports 64 --k 2 --rate 0.15 --hot 0.1"
                         " --cycles 1500 --trace-events " +
                         trace + " > /dev/null 2>&1"),
              0);
    ASSERT_FALSE(readFile(trace).empty());

    ASSERT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " " + trace +
                         " --top 4 --slowest 4 > " + report + " 2>&1"),
              0);
    const std::string text = readFile(report);
    EXPECT_NE(text.find("events"), std::string::npos) << text;
    EXPECT_NE(text.find("top congested lanes"), std::string::npos);
    EXPECT_NE(text.find("combine forest"), std::string::npos);
    EXPECT_NE(text.find("slowest request paths"), std::string::npos);
    std::remove(trace.c_str());
    std::remove(report.c_str());
}

TEST(UltrascopeTest, UsageAndConnectFailuresExitTwo)
{
    // Unreadable trace file.
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) +
                         " /no/such/trace.json > /dev/null 2>&1"),
              2);
    // --attach with no address.
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) +
                         " --attach > /dev/null 2>&1"),
              2);
    // Nothing listening at the address.
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --attach " +
                         tmpPath("nobody.sock") +
                         " --cmd status > /dev/null 2>&1"),
              2);
    // JSON nested past the parser's cap is a parse error in every
    // mode, never a stack overflow.
    const std::string deep = tmpPath("deep.json");
    const std::string err = tmpPath("deep.err");
    std::ofstream(deep) << std::string(100000, '[');
    for (const char *mode : {"", "--prof ", "--sweep "}) {
        EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " " + mode +
                             deep + " > /dev/null 2> " + err),
                  2)
            << mode;
        EXPECT_NE(readFile(err).find("nested deeper than 64"),
                  std::string::npos)
            << mode << readFile(err);
    }
    std::remove(deep.c_str());
    std::remove(err.c_str());
}

TEST(UltrascopeTest, ScriptedAttachMatchesUnattachedRun)
{
    const std::string sock = tmpPath("live.sock");
    const std::string attached_json = tmpPath("attached.json");
    const std::string plain_json = tmpPath("plain.json");
    const std::string log = tmpPath("session.log");
    const std::string common =
        " net --ports 64 --k 2 --rate 0.12 --hot 0.05 --cycles 1200"
        " --stats-json ";
    std::remove(attached_json.c_str());

    // Background run, paused at cycle 0 until the script resumes it.
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) + common +
                         attached_json + " --inspect " + sock +
                         " > /dev/null 2>&1 &"),
              0);
    ASSERT_TRUE(awaitPath(sock, 15000)) << "inspect socket never bound";

    const int rc = runCommand(
        std::string(ULTRASCOPE_BIN) + " --attach " + sock +
        " --cmd '{\"cmd\":\"watch\",\"stat\":\"net.stage1.tomm_pkts\","
        "\"op\":\">\",\"value\":3}'"
        " --cmd resume"
        " --wait-event watchpoint"
        " --cmd '{\"cmd\":\"switch\",\"copy\":0,\"stage\":1,\"index\":0}'"
        " --cmd '{\"cmd\":\"stats\",\"prefix\":\"net.\"}'"
        " --cmd resume"
        " --wait-event finished"
        " --cmd detach > " +
        log + " 2>&1");
    if (rc != 0) {
        // Best effort: never leave a paused orphan holding the socket.
        runCommand(std::string(ULTRASCOPE_BIN) + " --attach " + sock +
                   " --cmd detach > /dev/null 2>&1");
    }
    ASSERT_EQ(rc, 0) << readFile(log);

    // The session transcript shows the full protocol exchange.
    const std::string session = readFile(log);
    EXPECT_NE(session.find("\"event\": \"watchpoint\""),
              std::string::npos)
        << session;
    EXPECT_NE(session.find("\"event\": \"finished\""), std::string::npos);
    EXPECT_NE(session.find("\"switch\""), std::string::npos);

    ASSERT_TRUE(awaitFile(attached_json, 30000))
        << "attached run never wrote its stats";
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) + common +
                         plain_json + " > /dev/null 2>&1"),
              0);
    const std::string plain = readFile(plain_json);
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(readFile(attached_json), plain)
        << "inspection perturbed the run";

    std::remove(attached_json.c_str());
    std::remove(plain_json.c_str());
    std::remove(log.c_str());
}

TEST(UltrascopeTest, ProfReportRendersAttribution)
{
    const std::string prof = tmpPath("prof.json");
    const std::string report = tmpPath("prof_report.txt");
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) +
                         " net --ports 64 --k 2 --rate 0.15 --hot 0.05"
                         " --cycles 1500 --prof-json " +
                         prof + " > /dev/null 2>&1"),
              0);
    ASSERT_FALSE(readFile(prof).empty());

    ASSERT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --prof " +
                         prof + " > " + report + " 2>&1"),
              0);
    const std::string text = readFile(report);
    EXPECT_NE(text.find("ultra.prof.v2"), std::string::npos) << text;
    EXPECT_NE(text.find("timer coverage"), std::string::npos) << text;
    EXPECT_NE(text.find("phase times"), std::string::npos) << text;
    EXPECT_NE(text.find("inject"), std::string::npos) << text;
    // The threading sections are gone for good.
    EXPECT_EQ(text.find("barrier"), std::string::npos) << text;
    EXPECT_EQ(text.find("thread"), std::string::npos) << text;
    std::remove(prof.c_str());
    std::remove(report.c_str());
}

TEST(UltrascopeTest, ProfModeRejectsNonProfInput)
{
    // A trace-event file is valid JSON but not a prof report: the
    // schema gate must refuse it rather than render garbage.
    const std::string trace = tmpPath("notprof.json");
    std::ofstream(trace) << "{\"traceEvents\": []}\n";
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) + " --prof " +
                         trace + " > /dev/null 2>&1"),
              2);
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) +
                         " --prof /no/such/prof.json > /dev/null 2>&1"),
              2);
    EXPECT_EQ(runCommand(std::string(ULTRASCOPE_BIN) +
                         " --prof > /dev/null 2>&1"),
              2);
    std::remove(trace.c_str());
}

TEST(UltrascopeTest, WatchModeFollowsRunToCompletion)
{
    const std::string sock = tmpPath("watch.sock");
    const std::string log = tmpPath("watch.log");
    ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) +
                         " net --ports 64 --k 2 --rate 0.1"
                         " --cycles 400 --inspect " +
                         sock + " > /dev/null 2>&1 &"),
              0);
    ASSERT_TRUE(awaitPath(sock, 15000)) << "inspect socket never bound";

    // No scripted actions: resume and watch status until finished.
    const int rc = runCommand(std::string(ULTRASCOPE_BIN) +
                              " --attach " + sock + " --watch 0.2 > " +
                              log + " 2>&1");
    if (rc != 0) {
        runCommand(std::string(ULTRASCOPE_BIN) + " --attach " + sock +
                   " --cmd detach > /dev/null 2>&1");
    }
    EXPECT_EQ(rc, 0) << readFile(log);
    EXPECT_NE(readFile(log).find("\"event\": \"finished\""),
              std::string::npos);
    std::remove(log.c_str());
}

} // namespace
