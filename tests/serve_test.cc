/**
 * @file
 * `ultrasim serve` end-to-end over a unix socket (ultra.serve.v1).
 *
 * A real server subprocess, driven through the ultra::inspect client
 * transport: ping/status schema, sim jobs whose "out" files are
 * byte-identical to standalone `ultrasim net --stats-json` runs, the
 * warmed-configuration cache (second same-config job replies
 * "cached": 1 with identical bytes), the per-job Profiler reset (a
 * profiled job's cycle count never accumulates across jobs), and the
 * resilience contract: a client that vanishes mid-job never wedges
 * the server -- the next client attaches to a clean line.
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

#include "common/json_lite.h"
#include "inspect/server.h"

#ifndef ULTRASIM_BIN
#error "build must define ULTRASIM_BIN (see tests/CMakeLists.txt)"
#endif

namespace ultra
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr ? dir : "/tmp") + "/ultraserve_" +
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

/** Poll until @p path appears on disk (the serve socket). */
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

/** One server subprocess on its own unix socket.  Declare FIRST in a
 *  test body so clients (declared after) die before the destructor's
 *  best-effort shutdown connects. */
class ServeSession
{
  public:
    explicit ServeSession(const std::string &name)
        : sock_(tmpPath(name + ".sock")), log_(tmpPath(name + ".log"))
    {
        std::remove(sock_.c_str());
        runCommand(std::string(ULTRASIM_BIN) + " serve " + sock_ +
                   " > " + log_ + " 2>&1 &");
        bound_ = awaitPath(sock_, 15000);
    }

    ~ServeSession()
    {
        // Best effort: never leave an orphan server holding the
        // socket.  Harmless when a test already shut it down.
        std::string err;
        auto client = inspect::InspectClient::connect(sock_, err);
        if (client != nullptr && client->sendLine("{\"cmd\": "
                                                  "\"shutdown\"}")) {
            std::string line;
            client->recvLineEx(line, 5000);
        }
        std::remove(sock_.c_str());
        std::remove(log_.c_str());
    }

    bool bound() const { return bound_; }
    const std::string &sock() const { return sock_; }
    std::string log() const { return readFile(log_); }

  private:
    std::string sock_;
    std::string log_;
    bool bound_ = false;
};

/** Send one request line and parse the one-line JSON reply. */
jsonlite::JsonValue
roundTrip(inspect::InspectClient &client, const std::string &request,
          int timeout_ms = 60000)
{
    EXPECT_TRUE(client.sendLine(request));
    std::string line;
    const auto rc = client.recvLineEx(line, timeout_ms);
    EXPECT_EQ(rc, inspect::InspectClient::Recv::Line)
        << "no reply to: " << request;
    return jsonlite::parse(line.empty() ? "{}" : line);
}

TEST(ServeTest, PingStatusAndErrorReplies)
{
    ServeSession session("ping");
    ASSERT_TRUE(session.bound()) << "serve socket never bound";
    std::string err;
    auto client = inspect::InspectClient::connect(session.sock(), err);
    ASSERT_NE(client, nullptr) << err;

    jsonlite::JsonValue pong = roundTrip(*client, "{\"cmd\": \"ping\"}");
    EXPECT_EQ(pong["event"].string, "pong");
    EXPECT_EQ(pong["ok"].number, 1.0);
    EXPECT_EQ(pong["schema"].string, "ultra.serve.v1");

    // Garbage and unknown commands produce error replies, not a dead
    // server: the follow-up status must still answer.
    jsonlite::JsonValue bad = roundTrip(*client, "this is not json");
    EXPECT_EQ(bad["event"].string, "error");
    EXPECT_EQ(bad["ok"].number, 0.0);
    bad = roundTrip(*client, "{\"cmd\": \"frobnicate\"}");
    EXPECT_EQ(bad["event"].string, "error");
    // A sim job with an unknown parameter is rejected the same way the
    // CLI rejects an unknown flag.
    bad = roundTrip(*client,
                    "{\"cmd\": \"sim\", \"params\": {\"protz\": 1}}");
    EXPECT_EQ(bad["event"].string, "error");
    // So are values out of range, which used to reach an assertion
    // and kill the server: each gets an error reply naming the
    // parameter, and the connection keeps working.
    const struct
    {
        const char *params;
        const char *name;
    } jobs[] = {
        {"{\"ports\": 16, \"k\": 2, \"cycles\": 50, \"rate\": -1}",
         "rate"},
        {"{\"ports\": 16, \"k\": 2, \"cycles\": 0}", "cycles"},
        {"{\"ports\": 16, \"k\": 2, \"hot\": 2}", "hot"},
        {"{\"ports\": 1e30}", "ports"},
    };
    for (const auto &job : jobs) {
        bad = roundTrip(*client,
                        std::string("{\"cmd\": \"sim\", \"params\": ") +
                            job.params + "}");
        EXPECT_EQ(bad["event"].string, "error") << job.params;
        EXPECT_NE(bad["error"].string.find(job.name), std::string::npos)
            << job.params << ": " << bad["error"].string;
        pong = roundTrip(*client, "{\"cmd\": \"ping\"}");
        EXPECT_EQ(pong["event"].string, "pong") << job.params;
    }

    jsonlite::JsonValue status =
        roundTrip(*client, "{\"cmd\": \"status\"}");
    EXPECT_EQ(status["event"].string, "status");
    EXPECT_EQ(status["jobs_done"].number, 0.0);
    EXPECT_EQ(status["schema"].string, "ultra.serve.v1");

    jsonlite::JsonValue bye =
        roundTrip(*client, "{\"cmd\": \"shutdown\"}");
    EXPECT_EQ(bye["event"].string, "bye");
}

TEST(ServeTest, JobsMatchStandaloneUltrasimByteForByte)
{
    ServeSession session("jobs");
    ASSERT_TRUE(session.bound()) << "serve socket never bound";
    std::string err;
    auto client = inspect::InspectClient::connect(session.sock(), err);
    ASSERT_NE(client, nullptr) << err;

    struct Job
    {
        const char *params;
        const char *flags;
    };
    // Two different configurations through one persistent server; the
    // second exercises hot-spot traffic and a different seed.
    const Job jobs[] = {
        {"{\"ports\": 16, \"k\": 2, \"m\": 2, \"queue\": 15, "
         "\"cycles\": 400, \"rate\": 0.1, \"seed\": 5}",
         " net --ports 16 --k 2 --m 2 --queue 15 --cycles 400"
         " --rate 0.1 --seed 5"},
        {"{\"ports\": 16, \"k\": 2, \"m\": 2, \"queue\": 15, "
         "\"cycles\": 400, \"rate\": 0.05, \"hot\": 0.25, "
         "\"seed\": 11}",
         " net --ports 16 --k 2 --m 2 --queue 15 --cycles 400"
         " --rate 0.05 --hot 0.25 --seed 11"},
    };
    for (int i = 0; i < 2; ++i) {
        const std::string served =
            tmpPath("job" + std::to_string(i) + ".served.json");
        const std::string standalone =
            tmpPath("job" + std::to_string(i) + ".standalone.json");
        std::ostringstream req;
        req << "{\"cmd\": \"sim\", \"params\": " << jobs[i].params
            << ", \"out\": \"" << served << "\"}";
        const jsonlite::JsonValue reply = roundTrip(*client, req.str());
        ASSERT_EQ(reply["ok"].number, 1.0) << req.str();
        EXPECT_EQ(reply["event"].string, "result");
        EXPECT_EQ(reply["index"].number, static_cast<double>(i));
        ASSERT_TRUE(reply["stats"].isObject());
        ASSERT_TRUE(reply["summary"].isObject());

        ASSERT_EQ(runCommand(std::string(ULTRASIM_BIN) + jobs[i].flags +
                             " --stats-json " + standalone +
                             " > /dev/null 2>&1"),
                  0);
        const std::string servedBytes = readFile(served);
        ASSERT_FALSE(servedBytes.empty());
        EXPECT_EQ(servedBytes, readFile(standalone))
            << "job " << i
            << ": served stats diverged from standalone ultrasim";
        std::remove(served.c_str());
        std::remove(standalone.c_str());
    }
    roundTrip(*client, "{\"cmd\": \"shutdown\"}");
}

TEST(ServeTest, WarmedCacheIsByteNeutralAndCounted)
{
    ServeSession session("cache");
    ASSERT_TRUE(session.bound()) << "serve socket never bound";
    std::string err;
    auto client = inspect::InspectClient::connect(session.sock(), err);
    ASSERT_NE(client, nullptr) << err;

    const char *params =
        "{\"ports\": 16, \"k\": 2, \"m\": 2, \"queue\": 15, "
        "\"cycles\": 400, \"rate\": 0.1, \"seed\": 3}";
    std::string outs[2];
    int cached[2] = {-1, -1};
    for (int i = 0; i < 2; ++i) {
        outs[i] = tmpPath("cache" + std::to_string(i) + ".json");
        std::ostringstream req;
        req << "{\"cmd\": \"sim\", \"params\": " << params
            << ", \"out\": \"" << outs[i] << "\"}";
        const jsonlite::JsonValue reply = roundTrip(*client, req.str());
        ASSERT_EQ(reply["ok"].number, 1.0);
        cached[i] = static_cast<int>(reply["cached"].number);
    }
    // First job cold-builds; the refill hands the second a warmed
    // pristine rig -- and a cache hit must not move a single byte.
    EXPECT_EQ(cached[0], 0);
    EXPECT_EQ(cached[1], 1);
    const std::string bytes = readFile(outs[0]);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(readFile(outs[1]), bytes)
        << "warmed rig diverged from cold build";

    const jsonlite::JsonValue status =
        roundTrip(*client, "{\"cmd\": \"status\"}");
    EXPECT_EQ(status["jobs_done"].number, 2.0);
    EXPECT_EQ(status["cache_hits"].number, 1.0);

    std::remove(outs[0].c_str());
    std::remove(outs[1].c_str());
    roundTrip(*client, "{\"cmd\": \"shutdown\"}");
}

TEST(ServeTest, ProfilerResetsBetweenJobs)
{
    ServeSession session("prof");
    ASSERT_TRUE(session.bound()) << "serve socket never bound";
    std::string err;
    auto client = inspect::InspectClient::connect(session.sock(), err);
    ASSERT_NE(client, nullptr) << err;

    const char *req =
        "{\"cmd\": \"sim\", \"prof\": true, \"params\": "
        "{\"ports\": 16, \"k\": 2, \"m\": 2, \"queue\": 15, "
        "\"cycles\": 400, \"rate\": 0.1}}";
    double cycles[2] = {0, 0};
    double arrivalCalls[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        const jsonlite::JsonValue reply = roundTrip(*client, req);
        ASSERT_EQ(reply["ok"].number, 1.0);
        ASSERT_TRUE(reply["prof"].isObject()) << "no prof report";
        cycles[i] = reply["prof"]["cycles"].number;
        arrivalCalls[i] =
            reply["prof"]["phases"]["net.arrival"]["calls"].number;
    }
    // One Profiler serves every job; without the per-job reset the
    // second report would carry the first job's laps on top.  Phase
    // call counts are deterministic per run, so any leak shows up as
    // the second job's count growing past the first.
    EXPECT_GT(cycles[0], 0.0);
    EXPECT_EQ(cycles[1], cycles[0]);
    EXPECT_GT(arrivalCalls[0], 0.0);
    EXPECT_EQ(arrivalCalls[1], arrivalCalls[0])
        << "profiler state leaked across jobs";
    roundTrip(*client, "{\"cmd\": \"shutdown\"}");
}

TEST(ServeTest, ClientDisconnectMidJobDoesNotWedgeServer)
{
    ServeSession session("dc");
    ASSERT_TRUE(session.bound()) << "serve socket never bound";
    const std::string out = tmpPath("dc_job.json");
    std::remove(out.c_str());

    {
        // Client A submits a job and vanishes without reading the
        // reply -- the worst-case disconnect, mid-flight.
        std::string err;
        auto doomed =
            inspect::InspectClient::connect(session.sock(), err);
        ASSERT_NE(doomed, nullptr) << err;
        ASSERT_TRUE(doomed->sendLine(
            "{\"cmd\": \"sim\", \"params\": {\"ports\": 16, "
            "\"k\": 2, \"cycles\": 400}, \"out\": \"" +
            out + "\"}"));
    }

    // Client B must get a clean line and full service.  The connect
    // itself may queue while the abandoned job still runs, so the
    // generous reply timeout inside roundTrip does the waiting.
    std::string err;
    auto client = inspect::InspectClient::connect(session.sock(), err);
    ASSERT_NE(client, nullptr) << err;
    const jsonlite::JsonValue pong =
        roundTrip(*client, "{\"cmd\": \"ping\"}");
    EXPECT_EQ(pong["event"].string, "pong");

    // The abandoned job itself completed server-side: its "out" file
    // landed and the job counter advanced.
    const jsonlite::JsonValue status =
        roundTrip(*client, "{\"cmd\": \"status\"}");
    EXPECT_EQ(status["jobs_done"].number, 1.0);
    EXPECT_FALSE(readFile(out).empty())
        << "abandoned job never finished";

    const jsonlite::JsonValue reply = roundTrip(
        *client,
        "{\"cmd\": \"sim\", \"params\": {\"ports\": 16, \"k\": 2, "
        "\"cycles\": 400}}");
    EXPECT_EQ(reply["ok"].number, 1.0)
        << "server wedged after client disconnect";

    std::remove(out.c_str());
    roundTrip(*client, "{\"cmd\": \"shutdown\"}");
}

} // namespace
} // namespace ultra
