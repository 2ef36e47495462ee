/**
 * @file
 * The live inspection protocol (ultra::inspect), tested in-process:
 * the request grammar, the socket transport, and a full
 * client-drives-simulation loop -- a Machine running on a worker
 * thread with the Inspector installed as its cycle hook, and an
 * InspectClient pausing, stepping, dumping switches, reading memory,
 * arming watchpoints, and steering from the test thread.
 *
 * The headline guarantee is pinned at the end: an attached, paused,
 * inspected and resumed run produces statsJson() byte-identical to an
 * unattached run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_lite.h"
#include "core/machine.h"
#include "inspect/inspector.h"
#include "inspect/protocol.h"
#include "inspect/server.h"
#include "pe/task.h"

namespace ultra
{
namespace
{

using inspect::Command;
using inspect::CmpOp;
using inspect::InspectClient;
using inspect::InspectServer;
using inspect::Inspector;
using inspect::WatchSpec;

// ------------------------------------------------------------------
// Protocol grammar
// ------------------------------------------------------------------

Command
mustParse(const std::string &line)
{
    Command cmd;
    std::string err;
    EXPECT_TRUE(inspect::parseCommand(line, cmd, err))
        << line << ": " << err;
    return cmd;
}

void
mustReject(const std::string &line)
{
    Command cmd;
    std::string err;
    EXPECT_FALSE(inspect::parseCommand(line, cmd, err)) << line;
    EXPECT_FALSE(err.empty()) << line;
}

TEST(InspectProtocol, ParsesBareCommands)
{
    EXPECT_EQ(mustParse("{\"cmd\":\"ping\"}").kind, Command::Kind::Ping);
    EXPECT_EQ(mustParse("{\"cmd\":\"status\"}").kind,
              Command::Kind::Status);
    EXPECT_EQ(mustParse("{\"cmd\":\"pause\"}").kind,
              Command::Kind::Pause);
    EXPECT_EQ(mustParse("{\"cmd\":\"resume\"}").kind,
              Command::Kind::Resume);
    EXPECT_EQ(mustParse("{\"cmd\":\"watchpoints\"}").kind,
              Command::Kind::Watchpoints);
    EXPECT_EQ(mustParse("{\"cmd\":\"prof\"}").kind,
              Command::Kind::Prof);
    EXPECT_EQ(mustParse("{\"cmd\":\"detach\"}").kind,
              Command::Kind::Detach);
    // "quit" is a courtesy alias for detach.
    EXPECT_EQ(mustParse("{\"cmd\":\"quit\"}").kind,
              Command::Kind::Detach);
}

TEST(InspectProtocol, ParsesStep)
{
    Command by_n = mustParse("{\"cmd\":\"step\",\"n\":100}");
    EXPECT_EQ(by_n.kind, Command::Kind::Step);
    EXPECT_EQ(by_n.stepCount, 100u);
    EXPECT_EQ(by_n.stepTo, kNeverCycle);

    Command to = mustParse("{\"cmd\":\"step\",\"to\":5000}");
    EXPECT_EQ(to.stepTo, 5000u);

    // A bare step is a single cycle.
    EXPECT_EQ(mustParse("{\"cmd\":\"step\"}").stepCount, 1u);

    mustReject("{\"cmd\":\"step\",\"n\":0}");
    mustReject("{\"cmd\":\"step\",\"n\":-3}");
}

TEST(InspectProtocol, ParsesSwitchMniMemPoke)
{
    Command sw = mustParse(
        "{\"cmd\":\"switch\",\"copy\":1,\"stage\":2,\"index\":3}");
    EXPECT_EQ(sw.kind, Command::Kind::Switch);
    EXPECT_EQ(sw.copy, 1u);
    EXPECT_EQ(sw.stage, 2u);
    EXPECT_EQ(sw.index, 3u);

    Command mni = mustParse("{\"cmd\":\"mni\",\"module\":13}");
    EXPECT_EQ(mni.kind, Command::Kind::Mni);
    EXPECT_EQ(mni.module, 13u);

    Command by_vaddr = mustParse("{\"cmd\":\"mem\",\"vaddr\":64}");
    EXPECT_TRUE(by_vaddr.hasVaddr);
    EXPECT_EQ(by_vaddr.vaddr, 64u);

    Command by_module =
        mustParse("{\"cmd\":\"mem\",\"module\":3,\"offset\":7}");
    EXPECT_FALSE(by_module.hasVaddr);
    EXPECT_TRUE(by_module.hasModule);
    EXPECT_EQ(by_module.module, 3u);
    EXPECT_EQ(by_module.offset, 7u);

    Command poke =
        mustParse("{\"cmd\":\"poke\",\"vaddr\":64,\"value\":9}");
    EXPECT_EQ(poke.kind, Command::Kind::Poke);
    EXPECT_EQ(poke.value, 9u);

    mustReject("{\"cmd\":\"mem\"}"); // needs vaddr or module+offset
    mustReject("{\"cmd\":\"poke\",\"vaddr\":64}"); // needs value
}

TEST(InspectProtocol, ParsesWatchSpecs)
{
    Command cyc = mustParse("{\"cmd\":\"watch\",\"cycle\":5000}");
    EXPECT_EQ(cyc.kind, Command::Kind::Watch);
    EXPECT_EQ(cyc.watch.kind, WatchSpec::Kind::Cycle);
    EXPECT_EQ(cyc.watch.cycle, 5000u);

    Command stat = mustParse("{\"cmd\":\"watch\",\"stat\":"
                             "\"net.combined\",\"op\":\">\","
                             "\"value\":10}");
    EXPECT_EQ(stat.watch.kind, WatchSpec::Kind::Stat);
    EXPECT_EQ(stat.watch.stat, "net.combined");
    EXPECT_EQ(stat.watch.op, CmpOp::GT);
    EXPECT_EQ(stat.watch.value, 10.0);

    // Queue and wait-buffer gauges are watched by their stat paths.
    Command tomm = mustParse("{\"cmd\":\"watch\",\"stat\":"
                             "\"net.stage2.tomm_pkts\",\"op\":\">=\","
                             "\"value\":10}");
    EXPECT_EQ(tomm.watch.kind, WatchSpec::Kind::Stat);
    EXPECT_EQ(tomm.watch.stat, "net.stage2.tomm_pkts");
    EXPECT_EQ(tomm.watch.op, CmpOp::GE);

    Command tope = mustParse("{\"cmd\":\"watch\",\"stat\":"
                             "\"net.stage0.tope_pkts\",\"op\":\"<\","
                             "\"value\":4}");
    EXPECT_EQ(tope.watch.kind, WatchSpec::Kind::Stat);
    EXPECT_EQ(tope.watch.op, CmpOp::LT);

    Command wb = mustParse("{\"cmd\":\"watch\",\"stat\":"
                           "\"net.stage1.wb_entries\",\"op\":\"!=\","
                           "\"value\":0}");
    EXPECT_EQ(wb.watch.kind, WatchSpec::Kind::Stat);
    EXPECT_EQ(wb.watch.op, CmpOp::NE);

    Command drift = mustParse("{\"cmd\":\"watch\",\"drift\":0.15}");
    EXPECT_EQ(drift.watch.kind, WatchSpec::Kind::Drift);
    EXPECT_EQ(drift.watch.value, 0.15);

    mustReject("{\"cmd\":\"watch\"}"); // no spec at all
    mustReject("{\"cmd\":\"watch\",\"queue\":\"tomm\","
               "\"stage\":0,\"op\":\">\",\"value\":1}");
    mustReject("{\"cmd\":\"watch\",\"stat\":\"x\",\"op\":\"~\","
               "\"value\":1}");
    mustReject("{\"cmd\":\"watch\",\"stat\":\"x\",\"value\":1}");
}

/** Lines every server must answer with an error naming the problem:
 *  each pair is a request and a fragment its error must contain. */
std::vector<std::pair<std::string, std::string>>
malformedCorpus()
{
    return {
        // Not a request at all.
        {"", "malformed JSON"},
        {"not json at all", "malformed JSON"},
        {"[1,2,3]", "JSON object"},
        {"{\"no_cmd\":true}", "JSON object"},
        {"{\"cmd\":\"launch-missiles\"}", "unknown cmd"},
        {"{\"cmd\":42}", "JSON object"},
        // The observatory's numbers are {"cmd":"stats","prefix":"lat."}.
        {"{\"cmd\":\"latency\"}", "unknown cmd 'latency'"},
        // Truncated JSON.
        {"{\"cmd\":\"ping\"", "malformed JSON"},
        {"{\"cmd\":\"switch\",\"stage\":", "malformed JSON"},
        {"{\"cmd\":\"mem\",\"vaddr\":6", "malformed JSON"},
        {"{\"cmd\":\"pi", "malformed JSON"},
        // Wrong types.
        {"{\"cmd\":\"switch\",\"stage\":\"2\",\"index\":0}", "'stage'"},
        {"{\"cmd\":\"switch\",\"copy\":true,\"stage\":0,\"index\":0}",
         "'copy'"},
        {"{\"cmd\":\"mni\",\"module\":[3]}", "'module'"},
        {"{\"cmd\":\"poke\",\"vaddr\":1,\"value\":\"7\"}", "'value'"},
        {"{\"cmd\":\"unwatch\",\"id\":null}", "'id'"},
        {"{\"cmd\":\"step\",\"n\":{}}", "'n'"},
        {"{\"cmd\":\"watch\",\"queue\":7,\"stage\":0,\"op\":\">\","
         "\"value\":1}",
         "'queue'"},
        // Numbers that do not fit their field are never narrowed.
        {"{\"cmd\":\"switch\",\"copy\":0,\"stage\":4294967297,"
         "\"index\":0}",
         "'stage'"},
        {"{\"cmd\":\"switch\",\"stage\":0,\"index\":4294967296}",
         "'index'"},
        {"{\"cmd\":\"mni\",\"copy\":4294967296,\"module\":3}", "'copy'"},
        {"{\"cmd\":\"mni\",\"module\":-1}", "'module'"},
        {"{\"cmd\":\"mem\",\"module\":0,\"offset\":1e300}", "'offset'"},
        {"{\"cmd\":\"mem\",\"vaddr\":1.5}", "'vaddr'"},
        {"{\"cmd\":\"poke\",\"vaddr\":1,\"value\":1e300}", "'value'"},
        {"{\"cmd\":\"poke\",\"vaddr\":1,\"value\":-1e19}", "'value'"},
        {"{\"cmd\":\"poke\",\"vaddr\":1,\"value\":0.5}", "'value'"},
        {"{\"cmd\":\"step\",\"to\":1e300}", "'to'"},
        {"{\"cmd\":\"watch\",\"cycle\":-1}", "'cycle'"},
        {"{\"cmd\":\"watch\",\"stat\":7,\"op\":\">\",\"value\":0}",
         "'stat'"},
        // A queue watch is a stat watch; the reply names the form.
        {"{\"cmd\":\"watch\",\"queue\":\"wb\",\"stage\":1,"
         "\"op\":\">\",\"value\":0}",
         "\"stat\": \"net.stage2.tomm_pkts\""},
        {"{\"cmd\":\"unwatch\",\"id\":1e300}", "'id'"},
        // Nesting past the parser's cap.
        {std::string(100000, '['), "nested deeper than 64"},
        {"{\"cmd\":\"ping\",\"x\":" + std::string(65, '[') +
             std::string(65, ']') + "}",
         "nested deeper than 64"},
    };
}

TEST(InspectProtocol, RejectsMalformedLines)
{
    for (const auto &[line, why] : malformedCorpus()) {
        Command cmd;
        std::string err;
        EXPECT_FALSE(inspect::parseCommand(line, cmd, err))
            << line.substr(0, 80);
        EXPECT_NE(err.find(why), std::string::npos)
            << line.substr(0, 80) << ": " << err;
    }
    // The largest values that fit still parse.
    Command sw = mustParse("{\"cmd\":\"switch\",\"copy\":4294967295,"
                           "\"stage\":4294967295,\"index\":4294967295}");
    EXPECT_EQ(sw.copy, 4294967295u);
    EXPECT_EQ(sw.stage, 4294967295u);
    EXPECT_EQ(sw.index, 4294967295u);
    Command poke = mustParse("{\"cmd\":\"poke\",\"vaddr\":9007199254740992,"
                             "\"value\":-9007199254740992}");
    EXPECT_EQ(poke.vaddr, 9007199254740992u);
    EXPECT_EQ(poke.value, -9007199254740992);
}

TEST(InspectProtocol, CmpOpsRoundTripAndEvaluate)
{
    const char *names[] = {">", ">=", "<", "<=", "==", "!="};
    for (const char *name : names) {
        CmpOp op;
        ASSERT_TRUE(inspect::parseCmpOp(name, op)) << name;
        EXPECT_STREQ(inspect::cmpOpName(op), name);
    }
    CmpOp op;
    EXPECT_FALSE(inspect::parseCmpOp("=>", op));
    EXPECT_TRUE(inspect::evalCmp(3.0, CmpOp::GT, 2.0));
    EXPECT_FALSE(inspect::evalCmp(2.0, CmpOp::GT, 2.0));
    EXPECT_TRUE(inspect::evalCmp(2.0, CmpOp::GE, 2.0));
    EXPECT_TRUE(inspect::evalCmp(1.0, CmpOp::LT, 2.0));
    EXPECT_TRUE(inspect::evalCmp(2.0, CmpOp::LE, 2.0));
    EXPECT_TRUE(inspect::evalCmp(2.0, CmpOp::EQ, 2.0));
    EXPECT_TRUE(inspect::evalCmp(2.0, CmpOp::NE, 3.0));
}

TEST(InspectProtocol, ErrorReplyIsParseableJson)
{
    const std::string reply =
        inspect::errorReply("bad \"quoted\" thing\nwith newline");
    const jsonlite::JsonValue doc = jsonlite::parse(reply);
    ASSERT_TRUE(doc.isObject());
    EXPECT_FALSE(doc["ok"].boolean);
    EXPECT_EQ(doc["error"].string, "bad \"quoted\" thing\nwith newline");
}

// ------------------------------------------------------------------
// Socket transport
// ------------------------------------------------------------------

TEST(InspectServerTest, TcpRoundTrip)
{
    std::string err;
    auto server = InspectServer::listen("0", err);
    ASSERT_NE(server, nullptr) << err;
    ASSERT_GT(server->port(), 0);
    EXPECT_FALSE(server->connected());

    std::string line;
    EXPECT_FALSE(server->poll(line)); // nothing queued yet

    auto client =
        InspectClient::connect(std::to_string(server->port()), err);
    ASSERT_NE(client, nullptr) << err;

    ASSERT_TRUE(client->sendLine("hello"));
    ASSERT_TRUE(server->wait(line));
    EXPECT_EQ(line, "hello");

    server->send("world");
    ASSERT_TRUE(client->recvLine(line, 10000));
    EXPECT_EQ(line, "world");

    // A receive with nothing pending times out cleanly.
    EXPECT_EQ(client->recvLineEx(line, 50),
              InspectClient::Recv::Timeout);
    EXPECT_TRUE(line.empty());

    // Dropping the client is eventually observed server-side.
    client.reset();
    unsigned drops = 0;
    for (int i = 0; i < 200 && drops == 0; ++i) {
        drops = server->takeDisconnects();
        if (drops == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(drops, 1u);
}

TEST(InspectServerTest, WaitSeesDisconnectThatLandedBeforeIt)
{
    // A client that hangs up between two wait() calls must still end
    // the wait; a paused run would otherwise block forever.
    std::string err;
    auto server = InspectServer::listen("0", err);
    ASSERT_NE(server, nullptr) << err;
    auto client =
        InspectClient::connect(std::to_string(server->port()), err);
    ASSERT_NE(client, nullptr) << err;
    ASSERT_TRUE(client->sendLine("ping"));
    std::string line;
    ASSERT_TRUE(server->wait(line));

    client.reset();
    for (int i = 0; i < 200 && server->connected(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_FALSE(server->connected());
    EXPECT_FALSE(server->wait(line));
    EXPECT_EQ(server->takeDisconnects(), 0u) << "wait() consumes it";
}

TEST(InspectServerTest, UnixSocketRoundTrip)
{
    const char *dir = std::getenv("TMPDIR");
    const std::string path = std::string(dir != nullptr ? dir : "/tmp") +
                             "/ultra_inspect_test.sock";
    std::string err;
    auto server = InspectServer::listen(path, err);
    ASSERT_NE(server, nullptr) << err;
    EXPECT_EQ(server->where(), path);
    EXPECT_EQ(server->port(), 0);

    auto client = InspectClient::connect(path, err);
    ASSERT_NE(client, nullptr) << err;
    ASSERT_TRUE(client->sendLine("over unix"));
    std::string line;
    ASSERT_TRUE(server->wait(line));
    EXPECT_EQ(line, "over unix");

    // Listening again on the same path must unlink the stale file.
    client.reset();
    server.reset();
    server = InspectServer::listen(path, err);
    EXPECT_NE(server, nullptr) << err;
}

// ------------------------------------------------------------------
// Full client-drives-machine sessions
// ------------------------------------------------------------------

constexpr std::uint32_t kPes = 8;
constexpr int kIters = 40;

/** A small machine with a fetch-and-add worker loop and an Inspector
 *  wired in as the cycle hook; run() happens on a worker thread so the
 *  test thread can play the attached client. */
struct Harness
{
    explicit Harness(bool profiled = false, bool latency = false)
    {
        machine = std::make_unique<core::Machine>(
            core::MachineConfig::small(64, 2));
        if (profiled)
            machine->enableProfiling();
        if (latency)
            machine->enableLatency();
        counter = machine->allocShared(1, "counter");
        const Addr c = counter;
        machine->launchAll(kPes, [c](pe::Pe &pe) -> pe::Task {
            for (int i = 0; i < kIters; ++i) {
                co_await pe.compute(4);
                co_await pe.fetchAdd(c, 1);
            }
        });

        std::string err;
        server = InspectServer::listen("0", err);
        EXPECT_NE(server, nullptr) << err;
        if (server == nullptr)
            std::abort(); // cannot run any session without a socket
        inspect::Targets targets;
        targets.network = &machine->network();
        targets.memory = &machine->memory();
        targets.hash = &machine->addressHash();
        targets.registry = &machine->registry();
        targets.prof = machine->profiler();
        targets.latency = machine->latency();
        inspector =
            std::make_unique<Inspector>(*server, targets, true);
        machine->setCycleHook([this](Cycle now) {
            inspector->atCycleBoundary(now);
        });
        sim = std::thread([this] {
            finished = machine->run();
            inspector->finishRun(machine->now(), finished);
        });
    }

    ~Harness()
    {
        if (sim.joinable())
            sim.join();
    }

    std::unique_ptr<InspectClient>
    attach()
    {
        std::string err;
        auto client =
            InspectClient::connect(std::to_string(server->port()), err);
        EXPECT_NE(client, nullptr) << err;
        return client;
    }

    std::unique_ptr<core::Machine> machine;
    std::unique_ptr<InspectServer> server;
    std::unique_ptr<Inspector> inspector;
    Addr counter = 0;
    std::thread sim;
    bool finished = false;
};

/** Send @p line and return the next reply object, skipping (and
 *  discarding) any interleaved async events. */
jsonlite::JsonValue
request(InspectClient &client, const std::string &line)
{
    EXPECT_TRUE(client.sendLine(line));
    std::string reply;
    for (int i = 0; i < 50; ++i) {
        if (client.recvLineEx(reply, 15000) !=
            InspectClient::Recv::Line) {
            ADD_FAILURE() << "no reply to " << line;
            return jsonlite::JsonValue{};
        }
        jsonlite::JsonValue doc = jsonlite::parse(reply);
        if (doc.isObject() && doc.has("ok"))
            return doc;
    }
    ADD_FAILURE() << "drowned in events waiting for reply to " << line;
    return jsonlite::JsonValue{};
}

/** Wait until the named async event arrives, skipping replies. */
jsonlite::JsonValue
awaitEvent(InspectClient &client, const std::string &name)
{
    std::string line;
    for (int i = 0; i < 50; ++i) {
        if (client.recvLineEx(line, 15000) !=
            InspectClient::Recv::Line) {
            ADD_FAILURE() << "no '" << name << "' event";
            return jsonlite::JsonValue{};
        }
        jsonlite::JsonValue doc = jsonlite::parse(line);
        if (doc.isObject() && doc.has("event") &&
            doc["event"].string == name) {
            return doc;
        }
    }
    ADD_FAILURE() << "event '" << name << "' never arrived";
    return jsonlite::JsonValue{};
}

TEST(InspectorTest, StartPausedThenResumeRunsToCompletion)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    // The run holds at cycle 0 until we say go.
    jsonlite::JsonValue status = request(*client, "{\"cmd\":\"status\"}");
    ASSERT_TRUE(status.isObject());
    EXPECT_TRUE(status["ok"].boolean);
    EXPECT_EQ(status["cycle"].number, 0.0);
    EXPECT_TRUE(status["paused"].boolean);
    // Host-side progress: values are host-dependent, only the shape
    // and sanity are pinned (elapsed grows from attach, rate is
    // cycles / elapsed and cannot be negative).
    ASSERT_TRUE(status["wall"].isObject());
    EXPECT_GE(status["wall"]["elapsed_seconds"].number, 0.0);
    EXPECT_GE(status["wall"]["cycles_per_second"].number, 0.0);

    jsonlite::JsonValue resumed =
        request(*client, "{\"cmd\":\"resume\"}");
    EXPECT_TRUE(resumed["ok"].boolean);

    jsonlite::JsonValue fin = awaitEvent(*client, "finished");
    ASSERT_TRUE(fin.isObject());
    EXPECT_TRUE(fin["completed"].boolean);
    EXPECT_GT(fin["cycle"].number, 0.0);

    EXPECT_TRUE(request(*client, "{\"cmd\":\"detach\"}")["ok"].boolean);
    h.sim.join();
    EXPECT_TRUE(h.finished);
    EXPECT_EQ(h.machine->peek(h.counter),
              static_cast<Word>(kPes) * kIters);
    EXPECT_FALSE(h.inspector->pokeUsed());
}

TEST(InspectorTest, CycleWatchpointPausesForInspection)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    jsonlite::JsonValue armed =
        request(*client, "{\"cmd\":\"watch\",\"cycle\":50}");
    ASSERT_TRUE(armed["ok"].boolean);
    const double watch_id = armed["id"].number;
    EXPECT_GT(watch_id, 0.0);

    request(*client, "{\"cmd\":\"resume\"}");
    jsonlite::JsonValue hit = awaitEvent(*client, "watchpoint");
    ASSERT_TRUE(hit.isObject());
    EXPECT_EQ(hit["id"].number, watch_id);
    EXPECT_EQ(hit["cycle"].number, 50.0);

    // The sim is paused mid-run: committed state is all inspectable.
    jsonlite::JsonValue status = request(*client, "{\"cmd\":\"status\"}");
    EXPECT_TRUE(status["paused"].boolean);
    EXPECT_EQ(status["cycle"].number, 50.0);
    EXPECT_EQ(status["watchpoints"].number, 0.0); // one-shot: disarmed

    jsonlite::JsonValue sw = request(
        *client,
        "{\"cmd\":\"switch\",\"copy\":0,\"stage\":0,\"index\":0}");
    ASSERT_TRUE(sw["ok"].boolean);
    ASSERT_TRUE(sw["switch"].isObject());
    EXPECT_TRUE(sw["switch"]["tomm"].isArray());
    EXPECT_TRUE(sw["switch"]["tope"].isArray());
    EXPECT_TRUE(sw["switch"]["wait_buffer"].isArray());

    jsonlite::JsonValue mni =
        request(*client, "{\"cmd\":\"mni\",\"module\":0}");
    ASSERT_TRUE(mni["ok"].boolean);
    EXPECT_TRUE(mni["mni"].isObject());

    jsonlite::JsonValue stats = request(
        *client, "{\"cmd\":\"stats\",\"prefix\":\"net.\"}");
    ASSERT_TRUE(stats["ok"].boolean);
    ASSERT_TRUE(stats["stats"].isObject());
    EXPECT_TRUE(stats["stats"].has("net.injected"));

    // Out-of-range coordinates get clean errors, not crashes.
    EXPECT_FALSE(request(*client, "{\"cmd\":\"switch\",\"copy\":9,"
                                  "\"stage\":0,\"index\":0}")["ok"]
                     .boolean);
    EXPECT_FALSE(
        request(*client,
                "{\"cmd\":\"mni\",\"module\":9999}")["ok"].boolean);

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
}

TEST(InspectorTest, StepAdvancesExactlyNCycles)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    jsonlite::JsonValue step =
        request(*client, "{\"cmd\":\"step\",\"n\":25}");
    ASSERT_TRUE(step["ok"].boolean);
    EXPECT_EQ(step["until"].number, 25.0);
    jsonlite::JsonValue paused = awaitEvent(*client, "paused");
    EXPECT_EQ(paused["cycle"].number, 25.0);

    // step "to" an absolute cycle from the paused state.
    jsonlite::JsonValue to =
        request(*client, "{\"cmd\":\"step\",\"to\":40}");
    ASSERT_TRUE(to["ok"].boolean);
    EXPECT_EQ(awaitEvent(*client, "paused")["cycle"].number, 40.0);

    // A step target in the past is an error, and we stay paused.
    EXPECT_FALSE(
        request(*client,
                "{\"cmd\":\"step\",\"to\":10}")["ok"].boolean);
    EXPECT_TRUE(request(*client, "{\"cmd\":\"status\"}")["paused"]
                    .boolean);

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
}

TEST(InspectorTest, ProfCommandSnapshotsTheProfiler)
{
    // A profiled machine serves live wall-clock snapshots mid-run; the
    // report is the same schema-versioned JSON --prof-json writes.
    Harness h(/*profiled=*/true);
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    request(*client, "{\"cmd\":\"step\",\"n\":30}");
    awaitEvent(*client, "paused");

    jsonlite::JsonValue prof = request(*client, "{\"cmd\":\"prof\"}");
    ASSERT_TRUE(prof.isObject());
    EXPECT_TRUE(prof["ok"].boolean);
    ASSERT_TRUE(prof["prof"].isObject());
    EXPECT_EQ(prof["prof"]["schema"].string, "ultra.prof.v2");
    // Mid-run: elapsed is measured to the call, phases accumulated so
    // far cannot exceed it.
    EXPECT_GT(prof["prof"]["elapsed_seconds"].number, 0.0);
    ASSERT_TRUE(prof["prof"]["phases"].isObject());

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
}

TEST(InspectorTest, ProfCommandWithoutProfilerIsCleanError)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    jsonlite::JsonValue prof = request(*client, "{\"cmd\":\"prof\"}");
    ASSERT_TRUE(prof.isObject());
    EXPECT_FALSE(prof["ok"].boolean);
    EXPECT_NE(prof["error"].string.find("--prof-json"),
              std::string::npos);

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
}

TEST(InspectorTest, MalformedLinesGetErrorsAndTheServerStaysUp)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    for (const auto &[line, why] : malformedCorpus()) {
        if (line.empty())
            continue; // the transport skips blank lines unanswered
        const jsonlite::JsonValue reply = request(*client, line);
        ASSERT_TRUE(reply.isObject()) << line.substr(0, 80);
        EXPECT_FALSE(reply["ok"].boolean) << line.substr(0, 80);
        EXPECT_NE(reply["error"].string.find(why), std::string::npos)
            << line.substr(0, 80) << ": " << reply["error"].string;
    }
    const jsonlite::JsonValue pong = request(*client, "{\"cmd\":\"ping\"}");
    EXPECT_TRUE(pong["ok"].boolean);
    EXPECT_EQ(pong["cycle"].number, 0.0); // still paused at the start

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
}

TEST(InspectorTest, HeatmapNeedsTheObservatory)
{
    for (const bool latency : {false, true}) {
        Harness h(/*profiled=*/false, latency);
        auto client = h.attach();
        ASSERT_NE(client, nullptr);

        request(*client, "{\"cmd\":\"step\",\"n\":200}");
        awaitEvent(*client, "paused");
        const jsonlite::JsonValue heat =
            request(*client, "{\"cmd\":\"heatmap\"}");
        ASSERT_TRUE(heat.isObject());
        if (!latency) {
            EXPECT_FALSE(heat["ok"].boolean);
            EXPECT_NE(heat["error"].string.find("--latency"),
                      std::string::npos)
                << heat["error"].string;
        } else {
            ASSERT_TRUE(heat["ok"].boolean);
            // A header and a row per direction x stage x switch of the
            // 64-port machine (6 stages of 32), with traffic by now.
            std::istringstream csv(heat["csv"].string);
            std::string row;
            std::getline(csv, row);
            EXPECT_EQ(row.find("direction,stage,switch,visits,"), 0u);
            std::size_t rows = 0;
            double visits = 0;
            while (std::getline(csv, row)) {
                ++rows;
                std::size_t at = 0;
                for (int field = 0; field < 3; ++field)
                    at = row.find(',', at) + 1;
                visits += std::stod(row.substr(at));
            }
            EXPECT_EQ(rows, 2u * 6 * 32);
            EXPECT_GT(visits, 0.0);
        }
        request(*client, "{\"cmd\":\"resume\"}");
        awaitEvent(*client, "finished");
        request(*client, "{\"cmd\":\"detach\"}");
        h.sim.join();
        EXPECT_TRUE(h.finished);
    }
}

TEST(InspectorTest, StatWatchpointFiresOnRealTraffic)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    // kPes PEs fetch-adding one hot word in lockstep: the combining
    // network is guaranteed to merge some of them, so a watch on the
    // live net.combined counter must fire mid-run.
    jsonlite::JsonValue armed = request(
        *client, "{\"cmd\":\"watch\",\"stat\":\"net.combined\","
                 "\"op\":\">\",\"value\":0}");
    ASSERT_TRUE(armed["ok"].boolean);
    request(*client, "{\"cmd\":\"resume\"}");
    jsonlite::JsonValue hit = awaitEvent(*client, "watchpoint");
    ASSERT_TRUE(hit.isObject());
    EXPECT_GT(hit["observed"].number, 0.0);
    ASSERT_TRUE(hit["spec"].isObject());
    EXPECT_EQ(hit["spec"]["stat"].string, "net.combined");

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
}

TEST(InspectorTest, WatchValidationAndLifecycle)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    // Arm-time validation: bad specs are rejected with ok:false.
    EXPECT_FALSE(request(*client,
                         "{\"cmd\":\"watch\",\"stat\":\"no.such\","
                         "\"op\":\">\",\"value\":0}")["ok"]
                     .boolean);
    EXPECT_FALSE(request(*client,
                         "{\"cmd\":\"watch\",\"stat\":"
                         "\"net.stage99.tomm_pkts\",\"op\":\">\","
                         "\"value\":0}")["ok"]
                     .boolean);
    // No analytic model was wired into this run.
    EXPECT_FALSE(
        request(*client,
                "{\"cmd\":\"watch\",\"drift\":0.1}")["ok"].boolean);

    // Arm two, list them, disarm one.
    jsonlite::JsonValue first =
        request(*client, "{\"cmd\":\"watch\",\"cycle\":100000}");
    jsonlite::JsonValue second =
        request(*client, "{\"cmd\":\"watch\",\"cycle\":200000}");
    ASSERT_TRUE(first["ok"].boolean);
    ASSERT_TRUE(second["ok"].boolean);
    jsonlite::JsonValue listed =
        request(*client, "{\"cmd\":\"watchpoints\"}");
    ASSERT_TRUE(listed["watchpoints"].isArray());
    EXPECT_EQ(listed["watchpoints"].array.size(), 2u);

    const std::string unwatch =
        "{\"cmd\":\"unwatch\",\"id\":" +
        std::to_string(
            static_cast<std::uint64_t>(first["id"].number)) +
        "}";
    EXPECT_TRUE(request(*client, unwatch)["ok"].boolean);
    EXPECT_FALSE(request(*client, unwatch)["ok"].boolean); // gone now

    // Detach resumes and clears the leftover watchpoint; the run must
    // finish without anyone listening.
    EXPECT_TRUE(request(*client, "{\"cmd\":\"detach\"}")["ok"].boolean);
    client.reset();
    h.sim.join();
    EXPECT_TRUE(h.finished);
}

TEST(InspectorTest, MemReadAndPokeSteerTheRun)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    // Paused at cycle 0: the counter reads its initial value.
    const std::string vaddr = std::to_string(h.counter);
    jsonlite::JsonValue before = request(
        *client, "{\"cmd\":\"mem\",\"vaddr\":" + vaddr + "}");
    ASSERT_TRUE(before["ok"].boolean);
    EXPECT_EQ(before["value"].number, 0.0);

    // Re-read the same word by module/offset coordinates.
    const std::string by_module =
        "{\"cmd\":\"mem\",\"module\":" +
        std::to_string(
            static_cast<std::uint64_t>(before["module"].number)) +
        ",\"offset\":" +
        std::to_string(
            static_cast<std::uint64_t>(before["offset"].number)) +
        "}";
    jsonlite::JsonValue again = request(*client, by_module);
    ASSERT_TRUE(again["ok"].boolean);
    EXPECT_EQ(again["paddr"].number, before["paddr"].number);

    // Steer: preload the counter, then let the run finish.
    jsonlite::JsonValue poked = request(
        *client,
        "{\"cmd\":\"poke\",\"vaddr\":" + vaddr + ",\"value\":1000}");
    ASSERT_TRUE(poked["ok"].boolean);
    EXPECT_EQ(poked["new_value"].number, 1000.0);
    EXPECT_TRUE(h.inspector->pokeUsed());

    // Past-the-end addresses error cleanly.
    EXPECT_FALSE(request(*client, "{\"cmd\":\"mem\",\"module\":0,"
                                  "\"offset\":99999999}")["ok"]
                     .boolean);

    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
    EXPECT_EQ(h.machine->peek(h.counter),
              1000u + static_cast<Word>(kPes) * kIters);
}

TEST(InspectorTest, DisconnectWhilePausedAutoResumes)
{
    Harness h;
    auto client = h.attach();
    ASSERT_NE(client, nullptr);

    // Arm a far-future watchpoint, confirm we are attached and paused,
    // then vanish without resuming: the Inspector must disarm
    // everything and let the run finish rather than wedge.
    ASSERT_TRUE(request(*client, "{\"cmd\":\"watch\",\"cycle\":"
                                 "100000000}")["ok"]
                    .boolean);
    ASSERT_TRUE(request(*client, "{\"cmd\":\"ping\"}")["ok"].boolean);
    client.reset();

    h.sim.join();
    EXPECT_TRUE(h.finished);
    EXPECT_EQ(h.machine->peek(h.counter),
              static_cast<Word>(kPes) * kIters);
}

// ------------------------------------------------------------------
// The headline guarantee
// ------------------------------------------------------------------

/** statsJson() of an inspected run: attach, pause at a watchpoint,
 *  dump state, step, resume to completion. */
std::string
runInspected()
{
    Harness h;
    auto client = h.attach();
    if (client == nullptr)
        return "";
    request(*client, "{\"cmd\":\"watch\",\"cycle\":30}");
    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "watchpoint");
    request(*client,
            "{\"cmd\":\"switch\",\"copy\":0,\"stage\":1,\"index\":0}");
    request(*client, "{\"cmd\":\"stats\",\"prefix\":\"\"}");
    request(*client, "{\"cmd\":\"step\",\"n\":10}");
    awaitEvent(*client, "paused");
    request(*client, "{\"cmd\":\"resume\"}");
    awaitEvent(*client, "finished");
    request(*client, "{\"cmd\":\"detach\"}");
    h.sim.join();
    EXPECT_TRUE(h.finished);
    EXPECT_FALSE(h.inspector->pokeUsed());
    return h.machine->statsJson();
}

/** statsJson() of the identical machine with no inspection at all. */
std::string
runPlain()
{
    core::Machine machine(core::MachineConfig::small(64, 2));
    const Addr counter = machine.allocShared(1, "counter");
    machine.launchAll(kPes, [counter](pe::Pe &pe) -> pe::Task {
        for (int i = 0; i < kIters; ++i) {
            co_await pe.compute(4);
            co_await pe.fetchAdd(counter, 1);
        }
    });
    EXPECT_TRUE(machine.run());
    return machine.statsJson();
}

TEST(InspectorTest, InspectedRunIsByteIdenticalToPlainRun)
{
    const std::string plain = runPlain();
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(runInspected(), plain)
        << "inspection perturbed the simulation";
}

} // namespace
} // namespace ultra
