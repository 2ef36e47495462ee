/**
 * @file
 * ultrascope -- offline analyzer for ultrasim trace-event files.
 *
 * Reads the Chrome trace-event JSON written by `ultrasim ... \
 * --trace-events FILE` (the same file Perfetto loads) and answers
 * "where did my cycles go?" without a GUI:
 *
 *   - top congested switch lanes: per track/lane sums of link-hold
 *     ("X") durations, busiest first;
 *   - combine trees: every "combine" instant carries the absorbed
 *     message id and the id of the surviving request it folded into
 *     (args.id / args.link), so the absorption forest can be
 *     reconstructed and its fan-in distribution reported;
 *   - slowest request paths: inject -> reply latency per message id,
 *     worst offenders first, with combined-away requests resolved
 *     through their decombine events.
 *
 * Usage: ultrascope TRACE.json [--top N] [--slowest N]
 *
 * Profiler mode: `ultrascope --prof PROF.json` renders the wall-clock
 * self-profile written by `ultrasim ... --prof-json` as "where did my
 * wall-clock go?" -- the phase-time table, busiest first, and the
 * share of wall time the phase timers did not cover.
 *
 * Sweep mode: `ultrascope --sweep SWEEP.json` renders an `ultrasweep`
 * merged result (schema "sweep.v1") as a per-point table -- config,
 * delivered traffic, transit means and model drift.  Exit 2 on
 * anything that is not a sweep.v1 document.
 *
 * Live mode: `ultrascope --attach ADDR` connects to a running
 * `ultrasim ... --inspect ADDR` (see DESIGN.md "Live inspection").
 * With no further arguments it resumes the run and watches it: a
 * status line every --watch SEC seconds (default 2) until the run
 * finishes, optionally snapshotting the congestion heatmap to
 * PREFIX<n>.csv with --heatmap-out PREFIX.  Scripted sessions chain
 * ordered actions instead:
 *
 *   --cmd JSON-OR-WORD   send one request ('resume' expands to
 *                        {"cmd":"resume"}) and print its reply
 *   --wait-event NAME    print protocol traffic until the named
 *                        event ("watchpoint", "paused", "finished")
 *                        arrives
 *   --timeout SEC        per-wait receive timeout (default 30)
 *
 * Exit codes: 0 ok, 2 unreadable trace / usage / connect failure,
 * 1 a scripted command got an error reply, 3 timeout waiting for the
 * server.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_lite.h"
#include "inspect/server.h"

namespace
{

struct LaneKey
{
    std::string track;
    std::uint64_t tid = 0;

    bool
    operator<(const LaneKey &o) const
    {
        return track != o.track ? track < o.track : tid < o.tid;
    }
};

struct LaneLoad
{
    std::uint64_t busyCycles = 0;
    std::uint64_t events = 0;
    std::uint64_t combines = 0;
};

struct RequestPath
{
    std::uint64_t id = 0;
    std::uint64_t injectAt = 0;
    std::uint64_t replyAt = 0;
    bool injected = false;
    bool replied = false;
    bool combined = false; //!< absorbed into another request
};

struct Analysis
{
    std::map<std::string, std::string> trackNames; //!< pid -> name
    std::map<LaneKey, LaneLoad> lanes;
    std::map<std::uint64_t, RequestPath> requests;
    /** combine edges: absorbed id -> surviving id. */
    std::map<std::uint64_t, std::uint64_t> absorbedInto;
    /** decombine: spawned reply id -> original absorbed request id. */
    std::map<std::uint64_t, std::uint64_t> spawnOf;
    std::uint64_t events = 0;
};

std::uint64_t
asU64(const jsonlite::JsonValue &v)
{
    return v.isNumber() ? static_cast<std::uint64_t>(v.number) : 0;
}

bool
analyze(const jsonlite::JsonValue &doc, Analysis &out)
{
    if (!doc.isObject() || !doc.has("traceEvents") ||
        !doc["traceEvents"].isArray()) {
        return false;
    }
    for (const jsonlite::JsonValue &ev : doc["traceEvents"].array) {
        if (!ev.isObject() || !ev.has("ph"))
            continue;
        ++out.events;
        const std::string ph = ev["ph"].string;
        const std::string name = ev.has("name") ? ev["name"].string : "";
        const std::string pid =
            ev.has("pid") ? std::to_string(asU64(ev["pid"])) : "0";
        if (ph == "M") {
            if (name == "process_name" && ev.has("args"))
                out.trackNames[pid] = ev["args"]["name"].string;
            continue;
        }
        const std::uint64_t ts = asU64(ev["ts"]);
        std::uint64_t id = 0;
        std::uint64_t link = 0;
        if (ev.has("args")) {
            const jsonlite::JsonValue &args = ev["args"];
            if (args.isObject()) {
                if (args.has("id"))
                    id = asU64(args["id"]);
                if (args.has("link"))
                    link = asU64(args["link"]);
            }
        }
        if (ph == "X") {
            LaneKey key{pid, asU64(ev["tid"])};
            LaneLoad &lane = out.lanes[key];
            lane.busyCycles += asU64(ev["dur"]);
            ++lane.events;
            continue;
        }
        if (ph != "i")
            continue;
        if (name == "inject" && id != 0) {
            RequestPath &req = out.requests[id];
            req.id = id;
            req.injectAt = ts;
            req.injected = true;
        } else if (name == "reply" && id != 0) {
            RequestPath &req = out.requests[id];
            req.id = id;
            req.replyAt = ts;
            req.replied = true;
        } else if (name == "combine" && id != 0) {
            out.absorbedInto[id] = link;
            out.requests[id].combined = true;
            ++out.lanes[LaneKey{pid, asU64(ev["tid"])}].combines;
        } else if (name == "decombine" && id != 0) {
            out.spawnOf[id] = link;
        }
    }
    return true;
}

/** Follow absorbed -> survivor edges to the request that reached the
 *  memory (bounded: the forest is acyclic by construction). */
std::uint64_t
rootOf(const Analysis &a, std::uint64_t id)
{
    for (std::size_t hop = 0; hop < 64; ++hop) {
        auto it = a.absorbedInto.find(id);
        if (it == a.absorbedInto.end() || it->second == 0)
            return id;
        id = it->second;
    }
    return id;
}

void
reportLanes(const Analysis &a, std::size_t top)
{
    std::vector<std::pair<LaneKey, LaneLoad>> order(a.lanes.begin(),
                                                    a.lanes.end());
    std::sort(order.begin(), order.end(), [](const auto &x, const auto &y) {
        return x.second.busyCycles > y.second.busyCycles;
    });
    std::printf("top congested lanes (link-hold cycles):\n");
    std::printf("  %-28s %6s %12s %10s %9s\n", "track", "lane", "busy",
                "messages", "combines");
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
        const auto &[key, lane] = order[i];
        auto named = a.trackNames.find(key.track);
        const std::string &track =
            named != a.trackNames.end() ? named->second : key.track;
        std::printf("  %-28s %6llu %12llu %10llu %9llu\n", track.c_str(),
                    static_cast<unsigned long long>(key.tid),
                    static_cast<unsigned long long>(lane.busyCycles),
                    static_cast<unsigned long long>(lane.events),
                    static_cast<unsigned long long>(lane.combines));
    }
}

void
reportCombining(const Analysis &a)
{
    if (a.absorbedInto.empty()) {
        std::printf("\nno combines in this trace\n");
        return;
    }
    // Fan-in per surviving root = 1 (itself) + absorbed descendants.
    std::map<std::uint64_t, std::uint64_t> fanIn;
    for (const auto &[absorbed, survivor] : a.absorbedInto)
        ++fanIn[rootOf(a, survivor)];
    std::map<std::uint64_t, std::uint64_t> dist; // fan-in -> trees
    std::uint64_t deepest = 0;
    std::uint64_t deepest_id = 0;
    for (const auto &[root, absorbed] : fanIn) {
        ++dist[absorbed + 1];
        if (absorbed > deepest) {
            deepest = absorbed;
            deepest_id = root;
        }
    }
    std::printf("\ncombine forest: %zu requests absorbed into %zu "
                "trees\n",
                a.absorbedInto.size(), fanIn.size());
    for (const auto &[width, trees] : dist) {
        std::printf("  fan-in %2llu: %llu tree%s\n",
                    static_cast<unsigned long long>(width),
                    static_cast<unsigned long long>(trees),
                    trees == 1 ? "" : "s");
    }
    std::printf("  widest tree: %llu requests served by message %llu\n",
                static_cast<unsigned long long>(deepest + 1),
                static_cast<unsigned long long>(deepest_id));
}

void
reportSlowest(const Analysis &a, std::size_t top)
{
    std::vector<const RequestPath *> done;
    for (const auto &[id, req] : a.requests) {
        if (req.injected && req.replied && req.replyAt >= req.injectAt)
            done.push_back(&req);
    }
    if (done.empty()) {
        std::printf("\nno completed inject->reply paths in this trace\n");
        return;
    }
    std::sort(done.begin(), done.end(),
              [](const RequestPath *x, const RequestPath *y) {
                  return x->replyAt - x->injectAt >
                         y->replyAt - y->injectAt;
              });
    std::printf("\nslowest request paths (%zu completed):\n",
                done.size());
    std::printf("  %12s %10s %8s %9s  %s\n", "message", "inject",
                "reply", "cycles", "notes");
    for (std::size_t i = 0; i < done.size() && i < top; ++i) {
        const RequestPath &req = *done[i];
        std::string notes;
        if (req.combined) {
            notes = "absorbed into " +
                    std::to_string(rootOf(a, req.id));
        }
        std::printf("  %12llu %10llu %8llu %9llu  %s\n",
                    static_cast<unsigned long long>(req.id),
                    static_cast<unsigned long long>(req.injectAt),
                    static_cast<unsigned long long>(req.replyAt),
                    static_cast<unsigned long long>(req.replyAt -
                                                    req.injectAt),
                    notes.c_str());
    }
}

// ------------------------------------------------------------------
// Profiler-report mode (--prof)
// ------------------------------------------------------------------

double
numAt(const jsonlite::JsonValue &obj, const std::string &key)
{
    return obj.has(key) && obj[key].isNumber() ? obj[key].number : 0.0;
}

/** Render an `ultrasim --prof-json` report ("where did my wall-clock
 *  go?"): run totals, timer coverage, phase table.  Exit 2
 *  when the file is not an ultra.prof report. */
int
profMain(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "ultrascope: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    jsonlite::JsonValue doc;
    try {
        doc = jsonlite::parse(buf.str());
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ultrascope: parse error in %s: %s\n",
                     path.c_str(), err.what());
        return 2;
    }
    if (!doc.isObject() || !doc.has("schema") ||
        !doc["schema"].isString() ||
        doc["schema"].string.rfind("ultra.prof.", 0) != 0) {
        std::fprintf(stderr,
                     "ultrascope: %s is not an ultra.prof report\n",
                     path.c_str());
        return 2;
    }

    const double elapsed = numAt(doc, "elapsed_seconds");
    const double cycles = numAt(doc, "cycles");
    std::printf("%s: %s, %.0f cycles in %.3f s (%.0f cycles/s)\n",
                path.c_str(), doc["schema"].string.c_str(), cycles,
                elapsed, elapsed > 0.0 ? cycles / elapsed : 0.0);

    if (doc.has("attribution") && doc["attribution"].isObject()) {
        const jsonlite::JsonValue &at = doc["attribution"];
        std::printf("unattributed %.1f%% of elapsed wall (timer "
                    "coverage %.1f%%)\n",
                    100.0 * numAt(at, "overhead_fraction"),
                    100.0 * numAt(at, "coverage"));
    }

    if (doc.has("phases") && doc["phases"].isObject()) {
        std::vector<std::pair<std::string, const jsonlite::JsonValue *>>
            order;
        for (const auto &[name, val] : doc["phases"].object)
            order.emplace_back(name, &val);
        std::sort(order.begin(), order.end(),
                  [](const auto &x, const auto &y) {
                      return numAt(*x.second, "seconds") >
                             numAt(*y.second, "seconds");
                  });
        std::printf("\nphase times (wall seconds, busiest first):\n");
        std::printf("  %-16s %10s %8s %12s\n", "phase", "seconds",
                    "share", "calls");
        for (const auto &[name, val] : order) {
            const double s = numAt(*val, "seconds");
            if (s <= 0.0 && numAt(*val, "calls") == 0.0)
                continue;
            std::printf("  %-16s %10.4f %7.1f%% %12.0f\n",
                        name.c_str(), s,
                        elapsed > 0.0 ? 100.0 * s / elapsed : 0.0,
                        numAt(*val, "calls"));
        }
    }

    return 0;
}

// ------------------------------------------------------------------
// Merged-sweep mode (--sweep)
// ------------------------------------------------------------------

/** Render an `ultrasweep` merged result (schema "sweep.v1") as a
 *  per-point table.  Exit 2 when the file is not a sweep document. */
int
sweepMain(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "ultrascope: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    jsonlite::JsonValue doc;
    try {
        doc = jsonlite::parse(buf.str());
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ultrascope: parse error in %s: %s\n",
                     path.c_str(), err.what());
        return 2;
    }
    if (!doc.isObject() || !doc.has("schema") ||
        !doc["schema"].isString() || doc["schema"].string != "sweep.v1" ||
        !doc.has("points") || !doc["points"].isArray()) {
        std::fprintf(stderr,
                     "ultrascope: %s is not a sweep.v1 result\n",
                     path.c_str());
        return 2;
    }
    const std::vector<jsonlite::JsonValue> &pts = doc["points"].array;
    std::printf("%s: %zu points\n", path.c_str(), pts.size());
    std::printf("  %5s %-12s %6s %3s %3s %3s %6s %5s %10s %8s %8s "
                "%8s\n",
                "index", "tag", "ports", "k", "m", "d", "rate", "hot",
                "delivered", "one-way", "rt-mean", "drift%");
    for (const jsonlite::JsonValue &pt : pts) {
        if (!pt.isObject() || !pt.has("params") || !pt.has("summary"))
            continue;
        const jsonlite::JsonValue &p = pt["params"];
        const jsonlite::JsonValue &s = pt["summary"];
        const std::string tag =
            pt.has("tag") && pt["tag"].isString() && !pt["tag"].string.empty()
                ? pt["tag"].string
                : "-";
        std::printf("  %5.0f %-12s %6.0f %3.0f %3.0f %3.0f %6.3f "
                    "%5.2f %10.0f %8.2f %8.2f",
                    numAt(pt, "index"), tag.c_str(), numAt(p, "ports"),
                    numAt(p, "k"), numAt(p, "m"),
                    p.has("d") ? numAt(p, "d") : 1.0,
                    numAt(p, "rate"), numAt(p, "hot"),
                    numAt(s, "delivered"), numAt(s, "one_way_mean"),
                    numAt(s, "round_trip_mean"));
        if (numAt(s, "model_applicable") != 0.0)
            std::printf(" %8.1f", 100.0 * numAt(s, "drift"));
        else
            std::printf(" %8s", "-");
        std::printf("\n");
    }
    return 0;
}

// ------------------------------------------------------------------
// Live mode (--attach)
// ------------------------------------------------------------------

void
attachUsage()
{
    std::fprintf(stderr,
                 "usage: ultrascope --attach ADDR [--cmd JSON]... "
                 "[--wait-event NAME]...\n"
                 "                  [--watch SEC] [--heatmap-out "
                 "PREFIX] [--timeout SEC]\n");
}

/** One ordered step of a scripted session. */
struct AttachAction
{
    bool waitEvent = false; //!< else: send the command in text
    std::string text;
};

/** Print one received protocol line and classify it. */
struct LineInfo
{
    bool isEvent = false;
    std::string event;
    bool isReply = false;
    bool ok = false;
    jsonlite::JsonValue value;
};

LineInfo
classifyLine(const std::string &line)
{
    LineInfo info;
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    try {
        info.value = jsonlite::parse(line);
    } catch (const std::exception &) {
        return info; // not JSON: just echoed
    }
    if (!info.value.isObject())
        return info;
    if (info.value.has("event") && info.value["event"].isString()) {
        info.isEvent = true;
        info.event = info.value["event"].string;
    } else if (info.value.has("ok")) {
        info.isReply = true;
        info.ok = info.value["ok"].boolean;
    }
    return info;
}

/**
 * Receive until a reply ({"ok":...}) arrives, echoing everything.
 * @return 0 ok reply, 1 error reply, 3 timeout or server gone.
 */
int
awaitReply(ultra::inspect::InspectClient &client, int timeout_ms,
           bool &finished, jsonlite::JsonValue *reply = nullptr)
{
    std::string line;
    for (;;) {
        const auto got = client.recvLineEx(line, timeout_ms);
        if (got != ultra::inspect::InspectClient::Recv::Line) {
            std::fprintf(stderr, "ultrascope: %s waiting for reply\n",
                         got == ultra::inspect::InspectClient::Recv::
                                    Timeout
                             ? "timed out"
                             : "server closed the connection");
            return 3;
        }
        const LineInfo info = classifyLine(line);
        if (info.isEvent) {
            finished = finished || info.event == "finished";
            continue;
        }
        if (info.isReply) {
            if (reply != nullptr)
                *reply = info.value;
            return info.ok ? 0 : 1;
        }
    }
}

/** {"cmd":"resume"} from the bare word, full JSON passed through. */
std::string
commandLineFor(const std::string &text)
{
    if (!text.empty() && text[0] == '{')
        return text;
    return "{\"cmd\": \"" + text + "\"}";
}

int
attachMain(int argc, char **argv)
{
    std::string addr;
    std::vector<AttachAction> actions;
    bool watch = false;
    double watch_sec = 2.0;
    std::string heatmap_prefix;
    int timeout_ms = 30'000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                attachUsage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--attach") {
            addr = value();
        } else if (arg == "--cmd") {
            actions.push_back({false, value()});
        } else if (arg == "--wait-event") {
            actions.push_back({true, value()});
        } else if (arg == "--watch") {
            watch = true;
            watch_sec = std::strtod(value().c_str(), nullptr);
            if (watch_sec <= 0)
                watch_sec = 2.0;
        } else if (arg == "--heatmap-out") {
            heatmap_prefix = value();
        } else if (arg == "--timeout") {
            timeout_ms = static_cast<int>(
                1000.0 * std::strtod(value().c_str(), nullptr));
        } else {
            attachUsage();
            return 2;
        }
    }
    if (addr.empty()) {
        attachUsage();
        return 2;
    }
    if (actions.empty())
        watch = true; // bare --attach ADDR: watch the run

    std::string err;
    auto client = ultra::inspect::InspectClient::connect(addr, err);
    if (client == nullptr) {
        std::fprintf(stderr, "ultrascope: cannot connect to %s: %s\n",
                     addr.c_str(), err.c_str());
        return 2;
    }

    bool finished = false;
    int worst = 0;

    // Scripted actions first, in order.
    for (const AttachAction &action : actions) {
        if (action.waitEvent) {
            std::string line;
            for (;;) {
                const auto got = client->recvLineEx(line, timeout_ms);
                if (got !=
                    ultra::inspect::InspectClient::Recv::Line) {
                    std::fprintf(stderr,
                                 "ultrascope: no '%s' event (%s)\n",
                                 action.text.c_str(),
                                 got == ultra::inspect::InspectClient::
                                            Recv::Timeout
                                     ? "timeout"
                                     : "server gone");
                    return 3;
                }
                const LineInfo info = classifyLine(line);
                if (info.isEvent) {
                    finished = finished || info.event == "finished";
                    if (info.event == action.text)
                        break;
                }
            }
        } else {
            if (!client->sendLine(commandLineFor(action.text))) {
                std::fprintf(stderr, "ultrascope: server gone\n");
                return 3;
            }
            const int rc = awaitReply(*client, timeout_ms, finished);
            if (rc == 3)
                return 3;
            worst = std::max(worst, rc);
        }
    }
    if (!watch)
        return worst;

    // Watch loop: resume (start-paused runs), then a status poll every
    // watch_sec, absorbing async events, until the finished event.
    client->sendLine("{\"cmd\": \"resume\"}");
    // Tolerate an error reply: the run may already be finished.
    if (awaitReply(*client, timeout_ms, finished) == 3)
        return 3;
    const int interval_ms =
        std::max(1, static_cast<int>(watch_sec * 1000.0));
    unsigned snapshot = 0;
    bool heatmap_ok = !heatmap_prefix.empty();
    while (!finished) {
        std::string line;
        const auto got = client->recvLineEx(line, interval_ms);
        if (got == ultra::inspect::InspectClient::Recv::Line) {
            const LineInfo info = classifyLine(line);
            if (info.isEvent && info.event == "finished")
                finished = true;
            continue;
        }
        if (got == ultra::inspect::InspectClient::Recv::Closed) {
            std::fprintf(stderr,
                         "ultrascope: server closed the connection\n");
            return finished ? 0 : 3;
        }
        client->sendLine("{\"cmd\": \"status\"}");
        if (awaitReply(*client, timeout_ms, finished) == 3)
            return 3;
        if (heatmap_ok && !finished) {
            client->sendLine("{\"cmd\": \"heatmap\"}");
            jsonlite::JsonValue reply;
            const int rc =
                awaitReply(*client, timeout_ms, finished, &reply);
            if (rc == 3)
                return 3;
            if (rc != 0 || !reply.has("csv")) {
                heatmap_ok = false; // e.g. no observatory attached
            } else {
                const std::string path = heatmap_prefix +
                                         std::to_string(snapshot++) +
                                         ".csv";
                std::ofstream out(path, std::ios::binary);
                out << reply["csv"].string;
                std::fprintf(stderr, "ultrascope: wrote %s\n",
                             path.c_str());
            }
        }
    }
    client->sendLine("{\"cmd\": \"detach\"}");
    awaitReply(*client, timeout_ms, finished);
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--attach")
            return attachMain(argc, argv);
        if (std::string(argv[i]) == "--prof") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "usage: ultrascope --prof PROF.json\n");
                return 2;
            }
            return profMain(argv[i + 1]);
        }
        if (std::string(argv[i]) == "--sweep") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "usage: ultrascope --sweep SWEEP.json\n");
                return 2;
            }
            return sweepMain(argv[i + 1]);
        }
    }
    std::string path;
    std::size_t top = 10;
    std::size_t slowest = 10;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
            top = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--slowest" && i + 1 < argc) {
            slowest = std::strtoull(argv[++i], nullptr, 10);
        } else if (path.empty() && arg.rfind("--", 0) != 0) {
            path = arg;
        } else {
            std::fprintf(stderr, "usage: ultrascope TRACE.json "
                                 "[--top N] [--slowest N]\n");
            return 2;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr,
                     "usage: ultrascope TRACE.json [--top N] "
                     "[--slowest N]\n");
        return 2;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "ultrascope: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    Analysis analysis;
    try {
        const jsonlite::JsonValue doc = jsonlite::parse(buf.str());
        if (!analyze(doc, analysis)) {
            std::fprintf(stderr,
                         "ultrascope: %s is not a trace-event file "
                         "(no traceEvents array)\n",
                         path.c_str());
            return 2;
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ultrascope: parse error in %s: %s\n",
                     path.c_str(), err.what());
        return 2;
    }

    std::printf("%s: %llu events, %zu lanes, %zu requests seen\n",
                path.c_str(),
                static_cast<unsigned long long>(analysis.events),
                analysis.lanes.size(), analysis.requests.size());
    reportLanes(analysis, top);
    reportCombining(analysis);
    reportSlowest(analysis, slowest);
    return 0;
}
