#include "sweep/serve.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json_lite.h"
#include "inspect/server.h"
#include "obs/latency.h"
#include "obs/model_check.h"
#include "prof/profiler.h"
#include "sweep/grid.h"
#include "sweep/net_run.h"

namespace ultra::sweep
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

std::string
errorReply(const std::string &msg)
{
    return "{\"error\": \"" + jsonEscape(msg) +
           "\", \"event\": \"error\", \"ok\": 0}";
}

void
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "serve: cannot write %s\n", path.c_str());
        return;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
}

/** Splice `, "key": value` before the closing brace of @p object. */
std::string
spliceJson(const std::string &object, const std::string &key,
           const std::string &value)
{
    const std::size_t end = object.rfind('}');
    if (end == std::string::npos)
        return object;
    return object.substr(0, end) + ", \"" + key + "\": " + value + "}" +
           object.substr(end + 1);
}

std::string
stringField(const jsonlite::JsonValue &req, const char *key)
{
    if (req.has(key) && req[key].isString())
        return req[key].string;
    return "";
}

bool
boolField(const jsonlite::JsonValue &req, const char *key)
{
    return req.has(key) &&
           req[key].type == jsonlite::JsonValue::Type::Bool &&
           req[key].boolean;
}

/** Everything the server keeps warm between jobs. */
struct ServerState
{
    /** Pristine rigs in insertion order (FIFO eviction). */
    std::vector<std::pair<std::string, WarmRig>> cache;
    prof::Profiler profiler;
    std::size_t jobsDone = 0;
    std::size_t cacheHits = 0;
};

std::string
handleSim(const jsonlite::JsonValue &req, const ServeOptions &opts,
          ServerState &state)
{
    ParamMap params;
    std::string err;
    if (req.has("params") &&
        !loadParamsJson(req["params"], params, err)) {
        return errorReply(err);
    }
    NetPointSpec spec = specFromParams(params, err);
    if (!err.empty())
        return errorReply(err);
    if (boolField(req, "latency"))
        spec.wantLatency = true;
    const bool wantProf = boolField(req, "prof");

    // Hand a warmed pristine rig to a matching job; the experiment
    // double-checks the key and cold-builds on any mismatch.
    const std::string key = netConfigKey(spec.net);
    WarmRig warm;
    bool cached = false;
    for (auto it = state.cache.begin(); it != state.cache.end(); ++it) {
        if (it->first == key) {
            warm = std::move(it->second);
            state.cache.erase(it);
            cached = true;
            ++state.cacheHits;
            break;
        }
    }
    NetExperiment exp(spec, std::move(warm));

    NetExperiment::Hooks hooks;
    if (wantProf) {
        // One profiler serves every job; without the reset a warmed
        // machine would leak laps across jobs (the serve_test pin).
        state.profiler.reset();
        hooks.prof = &state.profiler;
    }
    exp.run(hooks);

    const obs::DumpOptions dump{.sortKeys = true, .pretty = false};
    const std::string stats = exp.statsJson(dump);
    const std::string out = stringField(req, "out");
    if (!out.empty())
        writeTextFile(out, stats);
    const std::string latencyOut = stringField(req, "latency_out");
    if (!latencyOut.empty() && exp.latency() != nullptr) {
        writeTextFile(latencyOut,
                      spliceJson(exp.latency()->summaryJson(), "model",
                                 exp.model().json()) +
                          "\n");
    }

    // The dump is file-shaped (trailing newline); the reply is one
    // protocol line, so embed it trimmed.
    std::string statsLine = stats;
    while (!statsLine.empty() && (statsLine.back() == '\n' ||
                                  statsLine.back() == '\r')) {
        statsLine.pop_back();
    }
    std::ostringstream reply;
    reply << "{\"cached\": " << (cached ? 1 : 0)
          << ", \"event\": \"result\", \"index\": " << state.jobsDone
          << ", \"ok\": 1";
    if (wantProf)
        reply << ", \"prof\": " << state.profiler.reportJson();
    reply << ", \"stats\": " << statsLine
          << ", \"summary\": " << exp.summary().json() << "}";
    ++state.jobsDone;

    // Refill: a freshly built pristine rig replaces whatever this job
    // consumed, so the next same-config job skips construction.
    if (opts.cacheCapacity > 0) {
        state.cache.emplace_back(key, buildWarmRig(spec.net));
        if (state.cache.size() > opts.cacheCapacity)
            state.cache.erase(state.cache.begin());
    }
    return reply.str();
}

} // namespace

int
serveMain(const std::string &addr, const ServeOptions &opts)
{
    std::string err;
    std::unique_ptr<inspect::InspectServer> server =
        inspect::InspectServer::listen(addr, err);
    if (server == nullptr) {
        std::fprintf(stderr, "serve %s: %s\n", addr.c_str(),
                     err.c_str());
        return 2;
    }
    std::fprintf(stderr, "serve: listening on %s\n",
                 server->where().c_str());
    std::fflush(stderr);

    ServerState state;
    std::string line;
    for (;;) {
        if (!server->wait(line)) {
            // Client vanished (possibly with a job mid-flight): clear
            // the disconnect note and go back to accepting clients.
            server->takeDisconnects();
            continue;
        }
        jsonlite::JsonValue req;
        try {
            req = jsonlite::parse(line);
        } catch (const std::exception &e) {
            server->send(errorReply(e.what()));
            continue;
        }
        if (!req.isObject() || !req.has("cmd") ||
            !req["cmd"].isString()) {
            server->send(errorReply("expected {\"cmd\": ...}"));
            continue;
        }
        const std::string cmd = req["cmd"].string;
        std::string reply;
        bool bye = false;
        if (cmd == "ping") {
            reply = "{\"event\": \"pong\", \"ok\": 1, "
                    "\"schema\": \"ultra.serve.v1\"}";
        } else if (cmd == "status") {
            std::ostringstream os;
            os << "{\"cache_hits\": " << state.cacheHits
               << ", \"cached_configs\": " << state.cache.size()
               << ", \"event\": \"status\", \"jobs_done\": "
               << state.jobsDone << ", \"ok\": 1, \"schema\": "
               << "\"ultra.serve.v1\"}";
            reply = os.str();
        } else if (cmd == "shutdown") {
            reply = "{\"event\": \"bye\", \"ok\": 1}";
            bye = true;
        } else if (cmd == "sim") {
            reply = handleSim(req, opts, state);
        } else {
            reply = errorReply("unknown cmd '" + cmd + "'");
        }
        // The requester may have vanished while the job ran and a new
        // client already attached: a reply must never cross clients,
        // so a disconnect since the request arrived drops it.
        if (server->takeDisconnects() == 0)
            server->send(reply);
        if (bye)
            return 0;
    }
}

} // namespace ultra::sweep
