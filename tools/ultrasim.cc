/**
 * @file
 * ultrasim -- command-line driver for network and workload
 * experiments on the simulated Ultracomputer.
 *
 * Subcommands:
 *
 *   ultrasim net   [options]   synthetic-traffic network experiment
 *   ultrasim app   [options]   run a scientific workload
 *   ultrasim model [options]   evaluate the analytic transit-time model
 *   ultrasim pack  [options]   section-3.6 packaging estimate
 *   ultrasim trace [options]   record an app's traffic / replay a file
 *   ultrasim serve ADDR        persistent job server on the inspect
 *                              transport (protocol "ultra.serve.v1",
 *                              see src/sweep/serve.h); ADDR as in
 *                              --inspect.  Option: --cache N
 *                              (warmed configurations kept, default 4)
 *
 * `trace` options:
 *   --record FILE --app NAME --pes P --n N    record a workload trace
 *   --replay FILE [network options]           replay through a config
 *
 * Common network options:
 *   --ports N      ports per side (default 256)
 *   --k K          switch degree (default 2)
 *   --m M          multiplexing factor / uniform message length
 *   --d D          network copies (default 1)
 *   --queue Q      queue capacity in packets, 0 = unbounded (default 15)
 *   --policy P     none | homo | full (default full)
 *   --burroughs    kill-on-conflict switches
 *   --ideal        ideal paracomputer (single-cycle shared memory)
 *   --uniform      uniform packet sizing (analytic-model assumption)
 *
 * Observability options (`net` and `app`):
 *   --stats-json FILE      dump every registered statistic as JSON
 *                          (keys in sorted order, stable across runs)
 *   --stats-pretty         one statistic per line in --stats-json
 *   --sample-every S       snapshot occupancy gauges every S cycles
 *   --sample-out FILE      write the sampled time series as CSV
 *   --trace-events FILE    Chrome trace-event JSON (load in Perfetto)
 *   --latency-json FILE    packet-lifecycle latency report (per-stage
 *                          waits, combining effectiveness, model drift)
 *   --prof-json FILE       wall-clock self-profile of the host run:
 *                          per-phase times and their coverage of the
 *                          run (simulation output stays byte-identical;
 *                          read with `ultrascope --prof FILE`)
 *   --heatmap-csv FILE     stage x switch congestion heatmap
 *   --check-drift [TOL]    net only: fail (exit 3) when the measured
 *                          transit drifts more than TOL (default 0.15)
 *                          from the Kruskal-Snir prediction; exit 2
 *                          when the config violates model assumptions
 *
 * Live inspection (`net` and `app`; see DESIGN.md "Live inspection"):
 *   --inspect ADDR serve the gdb-style inspection protocol on ADDR (an
 *                  all-digit string is a TCP port on 127.0.0.1, 0 picks
 *                  an ephemeral one; anything else is a unix-socket
 *                  path).  The run starts paused until a client
 *                  attaches and resumes; attach with
 *                  `ultrascope --attach ADDR`.
 *
 * Unknown flags are rejected (exit 2) -- a typo must never silently
 * become a default-configured experiment.  So are numeric values with
 * trailing garbage or out of range (exit 2, naming the flag), and a
 * failed output-file write exits 1.
 *
 * `net` options:
 *   --rate R       offered load, messages/PE/cycle, in [0, 1]
 *                  (default 0.1)
 *   --hot F        fraction of traffic to one hot F&A cell, in [0, 1]
 *                  (default 0)
 *   --cycles C     measured cycles, at least 1 (default 10000)
 *   --closed W     closed loop with window W instead of open loop
 *   --seed S       traffic RNG seed (default 1); lets a sweep point be
 *                  reproduced as a standalone run
 *
 * `app` options:
 *   --app NAME     tred2 | weather | multigrid | montecarlo | sssp | accounts
 *   --pes P        cooperating PEs, 1..4096 (default 16); the machine
 *                  has the next power of two at or above max(P, 16)
 *                  ports
 *   --n N          problem size (matrix order / grid side / multigrid
 *                  level / particles / vertices / accounts; default
 *                  and range depend on app)
 *   --contexts K   hardware multiprogramming fold, dividing P (tred2
 *                  only)
 *
 * `model` options:
 *   --ports --k --m --d as above; sweeps p and prints the curve
 *   --best --rate R --budget T   cheapest config with T(R) <= budget
 *
 * Examples:
 *   ultrasim net --ports 1024 --k 4 --m 4 --d 2 --uniform --rate 0.15
 *   ultrasim net --hot 1 --policy none        # hot-spot, no combining
 *   ultrasim app --app tred2 --pes 16 --n 32 --contexts 2
 *   ultrasim model --ports 4096 --k 4 --m 4 --d 2
 *   ultrasim pack --ports 4096
 */

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "analytic/drift.h"
#include "analytic/packaging.h"
#include "analytic/queueing.h"
#include "apps/accounts.h"
#include "apps/montecarlo.h"
#include "apps/multigrid.h"
#include "apps/shortest_path.h"
#include "apps/tred2.h"
#include "apps/weather.h"
#include "common/table.h"
#include "core/machine.h"
#include "inspect/inspector.h"
#include "inspect/server.h"
#include "mem/address_hash.h"
#include "net/pni.h"
#include "net/trace.h"
#include "net/traffic.h"
#include "obs/event_trace.h"
#include "obs/latency.h"
#include "obs/model_check.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "prof/profiler.h"
#include "sweep/net_run.h"
#include "sweep/serve.h"

namespace
{

using namespace ultra;

void usage();

/** Minimal flag parser: --name value and boolean --name. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                std::fprintf(stderr, "unexpected argument '%s'\n",
                             argv[i]);
                usage();
                std::exit(2);
            }
            key = key.substr(2);
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                values_[key] = argv[++i];
            } else {
                values_[key] = "";
            }
        }
    }

    /**
     * Reject (exit 2 + usage) any parsed flag not in @p allowed: a typo
     * must never silently run a default-configured experiment.
     */
    void
    rejectUnknown(const char *cmd,
                  std::initializer_list<const char *> allowed) const
    {
        for (const auto &kv : values_) {
            bool known = false;
            for (const char *name : allowed)
                known = known || kv.first == name;
            if (!known) {
                std::fprintf(stderr,
                             "ultrasim %s: unknown flag '--%s'\n", cmd,
                             kv.first.c_str());
                usage();
                std::exit(2);
            }
        }
    }

    bool has(const std::string &key) const { return values_.count(key); }

    /** The value of --@p key as an integer in [0, @p max]; exit 2 on
     *  an empty value, trailing garbage or a value out of range. */
    std::uint64_t
    getInt(const std::string &key, std::uint64_t fallback,
           std::uint64_t max = UINT32_MAX) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        char *end = nullptr;
        errno = 0;
        const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
            *end != '\0' || errno == ERANGE || x > max) {
            badValue(key, v,
                     ("an integer in [0, " + std::to_string(max) + "]")
                         .c_str());
        }
        return x;
    }

    /** The value of --@p key as a finite number; exit 2 like getInt. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        char *end = nullptr;
        errno = 0;
        const double x = std::strtod(v.c_str(), &end);
        if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
            *end != '\0' || errno == ERANGE || !std::isfinite(x)) {
            badValue(key, v, "a number");
        }
        return x;
    }

    /** getDouble restricted to [0, 1] (rates and fractions). */
    double
    getFraction(const std::string &key, double fallback) const
    {
        const double x = getDouble(key, fallback);
        if (x < 0.0 || x > 1.0)
            badValue(key, values_.at(key), "a value in [0, 1]");
        return x;
    }

    std::string
    getString(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

  private:
    [[noreturn]] static void
    badValue(const std::string &key, const std::string &value,
             const char *what)
    {
        std::fprintf(stderr, "ultrasim: --%s expects %s, got '%s'\n",
                     key.c_str(), what, value.c_str());
        std::exit(2);
    }

    std::map<std::string, std::string> values_;
};

/** The shared observability options (--stats-json, --latency-json...). */
struct ObsOptions
{
    std::string statsJson;
    bool statsPretty = false;
    Cycle sampleEvery = 0;
    std::string sampleOut;
    std::string traceEvents;
    std::string latencyJson;
    std::string profJson;
    std::string heatmapCsv;
    bool checkDrift = false;
    double driftTolerance = analytic::kDefaultDriftTolerance;

    static ObsOptions
    from(const Args &args)
    {
        ObsOptions o;
        o.statsJson = args.getString("stats-json", "");
        o.statsPretty = args.has("stats-pretty");
        o.sampleEvery = args.getInt("sample-every", 0, UINT64_MAX);
        o.sampleOut = args.getString("sample-out", "");
        o.traceEvents = args.getString("trace-events", "");
        o.latencyJson = args.getString("latency-json", "");
        o.profJson = args.getString("prof-json", "");
        o.heatmapCsv = args.getString("heatmap-csv", "");
        o.checkDrift = args.has("check-drift");
        // A bare --check-drift keeps the default tolerance.
        if (!args.getString("check-drift", "").empty())
            o.driftTolerance = args.getDouble("check-drift", 0.0);
        if (o.driftTolerance <= 0.0)
            o.driftTolerance = analytic::kDefaultDriftTolerance;
        return o;
    }

    bool sampling() const { return sampleEvery != 0; }

    /** Any option that needs the latency observatory attached. */
    bool
    latencyWanted() const
    {
        return !latencyJson.empty() || !heatmapCsv.empty() || checkDrift;
    }

    /** CLI stats dumps are sorted so repeated runs diff cleanly; the
     *  library default (insertion order, pretty) is golden-pinned and
     *  unchanged. */
    obs::DumpOptions
    dumpOptions() const
    {
        return {.sortKeys = true, .pretty = statsPretty};
    }
};

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

/** Write @p content to @p path; false (with a message) on failure. */
bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
    if (f != nullptr)
        ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

net::NetSimConfig
netConfigFrom(const Args &args)
{
    net::NetSimConfig cfg;
    cfg.numPorts = static_cast<std::uint32_t>(args.getInt("ports", 256));
    cfg.k = static_cast<unsigned>(args.getInt("k", 2));
    cfg.m = static_cast<unsigned>(args.getInt("m", cfg.k));
    cfg.d = static_cast<unsigned>(args.getInt("d", 1));
    cfg.queueCapacityPackets =
        static_cast<std::uint32_t>(args.getInt("queue", 15));
    cfg.mmPendingCapacityPackets = cfg.queueCapacityPackets;
    cfg.sizing = args.has("uniform") ? net::PacketSizing::Uniform
                                     : net::PacketSizing::ByContent;
    cfg.burroughsKill = args.has("burroughs");
    cfg.idealParacomputer = args.has("ideal");
    const std::string policy = args.getString("policy", "full");
    cfg.combinePolicy = policy == "none" ? net::CombinePolicy::None
                        : policy == "homo"
                            ? net::CombinePolicy::Homogeneous
                            : net::CombinePolicy::Full;
    if (!cfg.valid()) {
        std::fprintf(stderr, "invalid network configuration (ports "
                             "must be a power of k, queues >= one "
                             "message)\n");
        std::exit(2);
    }
    return cfg;
}

/** Flags shared by `net` and `app` (observability). */
#define ULTRASIM_OBS_FLAGS                                              \
    "stats-json", "stats-pretty", "sample-every", "sample-out",         \
        "trace-events", "latency-json", "prof-json", "heatmap-csv",     \
        "check-drift", "inspect"

/**
 * Create the inspection server + engine for --inspect ADDR (exit 2 on
 * a bad address).  The run starts paused until a client resumes it, so
 * a fast run cannot finish before the client attaches.
 */
std::unique_ptr<inspect::Inspector>
makeInspector(const Args &args,
              std::unique_ptr<inspect::InspectServer> &server,
              const inspect::Targets &targets)
{
    if (!args.has("inspect"))
        return nullptr;
    const std::string addr = args.getString("inspect", "");
    if (addr.empty()) {
        std::fprintf(stderr,
                     "--inspect needs a port or unix-socket path\n");
        std::exit(2);
    }
    std::string err;
    server = inspect::InspectServer::listen(addr, err);
    if (server == nullptr) {
        std::fprintf(stderr, "--inspect %s: %s\n", addr.c_str(),
                     err.c_str());
        std::exit(2);
    }
    std::fprintf(stderr,
                 "inspect: listening on %s (paused until a client "
                 "attaches and resumes)\n",
                 server->where().c_str());
    return std::make_unique<inspect::Inspector>(*server, targets, true);
}

int
cmdNet(const Args &args)
{
    args.rejectUnknown(
        "net", {"ports", "k", "m", "d", "queue", "policy", "burroughs",
                "ideal", "uniform", "rate", "hot", "cycles", "closed",
                "seed", ULTRASIM_OBS_FLAGS});
    const ObsOptions obs = ObsOptions::from(args);

    // The experiment itself -- construction order, warmup/reset/
    // measure loop, model cross-check -- lives in sweep::NetExperiment
    // so `ultrasim net`, the ultrasweep workers and `ultrasim serve`
    // produce identical bytes by sharing the code, not by replicating
    // it.  This function only maps flags onto the spec and wires the
    // byte-neutral observability hooks.
    sweep::NetPointSpec spec;
    spec.net = netConfigFrom(args);
    spec.traffic.activePes = spec.net.numPorts;
    spec.traffic.rate = args.getFraction("rate", 0.1);
    spec.traffic.hotFraction = args.getFraction("hot", 0.0);
    spec.traffic.hotAddr = 13;
    spec.traffic.addrSpaceWords = std::uint64_t{spec.net.numPorts} << 8;
    if (args.has("closed")) {
        spec.traffic.closedLoop = true;
        spec.traffic.window =
            static_cast<unsigned>(args.getInt("closed", 1));
    }
    spec.traffic.seed = args.getInt("seed", 1, UINT64_MAX);
    spec.pni.maxOutstanding = spec.traffic.closedLoop ? 0 : 8;
    spec.cycles = args.getInt("cycles", 10000, UINT64_MAX);
    spec.wantLatency = obs.latencyWanted();
    spec.driftTolerance = obs.driftTolerance;
    if (const std::string err = sweep::validate(spec); !err.empty()) {
        std::fprintf(stderr, "ultrasim net: %s\n", err.c_str());
        return 2;
    }

    sweep::NetExperiment exp(spec);
    net::Network &network = exp.network();
    const Cycle cycles = spec.cycles;

    obs::EventTrace trace;
    obs::Sampler sampler;
    if (obs.sampling()) {
        for (unsigned s = 0; s < network.topology().stages(); ++s) {
            const std::string stage =
                "net.stage" + std::to_string(s) + ".";
            sampler.addRegistryColumn(exp.registry(),
                                      stage + "tomm_pkts");
            sampler.addRegistryColumn(exp.registry(),
                                      stage + "wb_entries");
            sampler.addRegistryColumn(exp.registry(),
                                      stage + "combines");
        }
        sampler.addRegistryColumn(exp.registry(), "pni.outstanding");
        sampler.addRegistryColumn(exp.registry(),
                                  "net.mni_pending_pkts");
    }

    // Wall-clock self-profiler (opt-in): times injection, PNI issue
    // and the network's sub-phases; the simulated run is byte-identical
    // with or without it.
    std::unique_ptr<prof::Profiler> prof;
    if (!obs.profJson.empty())
        prof = std::make_unique<prof::Profiler>();

    std::unique_ptr<inspect::InspectServer> iserver;
    inspect::Targets itargets;
    itargets.network = &network;
    itargets.memory = &exp.memory();
    itargets.hash = &exp.addressHash();
    itargets.registry = &exp.registry();
    itargets.latency = exp.latency();
    itargets.prof = prof.get();
    std::unique_ptr<inspect::Inspector> inspector =
        makeInspector(args, iserver, itargets);
    if (inspector && exp.modelApplicable()) {
        inspector->setDriftProbe([&exp, &network,
                                  acfg = exp.modelConfig(),
                                  ports = spec.net.numPorts]() {
            const auto &s = network.stats();
            const Cycle elapsed = network.now() - exp.statsResetAt();
            if (elapsed == 0 || s.injected == 0 ||
                s.oneWayTransit.count() == 0) {
                return 0.0;
            }
            const double p = static_cast<double>(s.injected) /
                             static_cast<double>(elapsed) / ports;
            return analytic::transitDrift(acfg, p,
                                          s.oneWayTransit.mean());
        });
    }

    sweep::NetExperiment::Hooks hooks;
    if (inspector) {
        hooks.atCycle = [&inspector](Cycle now) {
            inspector->atCycleBoundary(now);
        };
    }
    if (obs.sampling()) {
        hooks.sampler = &sampler;
        hooks.sampleEvery = obs.sampleEvery;
    }
    if (!obs.traceEvents.empty())
        hooks.trace = &trace;
    hooks.prof = prof.get();
    exp.run(hooks);

    const auto &stats = network.stats();
    const obs::ModelCrossCheck &model = exp.model();
    const bool model_ok = exp.modelOk();
    obs::LatencyObservatory *const latency = exp.latency();

    // The run is over: let an attached client take final dumps (the
    // model.* stats are registered by now), then write the files.
    if (inspector)
        inspector->finishRun(network.now(), true);

    bool written = true;
    if (!obs.statsJson.empty()) {
        written &= writeTextFile(obs.statsJson,
                                 exp.statsJson(obs.dumpOptions()));
    }
    if (!obs.sampleOut.empty())
        written &= sampler.save(obs.sampleOut);
    if (!obs.traceEvents.empty())
        written &= trace.save(obs.traceEvents);
    if (latency != nullptr) {
        if (!obs.latencyJson.empty()) {
            written &= writeTextFile(
                obs.latencyJson,
                spliceJson(latency->summaryJson(), "model",
                           model.json()) +
                    "\n");
        }
        if (!obs.heatmapCsv.empty())
            written &= writeTextFile(obs.heatmapCsv, latency->heatmapCsv());
    }
    if (prof)
        written &= writeTextFile(obs.profJson, prof->reportJson() + "\n");
    std::printf("ports %u, k=%u m=%u d=%u, policy %s%s\n",
                spec.net.numPorts, spec.net.k, spec.net.m, spec.net.d,
                args.getString("policy", "full").c_str(),
                spec.net.burroughsKill ? " (kill-on-conflict)" : "");
    std::printf("injected:        %llu (%.3f/PE/cycle)\n",
                static_cast<unsigned long long>(stats.injected),
                static_cast<double>(stats.injected) / cycles /
                    spec.net.numPorts);
    std::printf("delivered:       %llu\n",
                static_cast<unsigned long long>(stats.delivered));
    std::printf("combined:        %llu (%.1f%% of injected)\n",
                static_cast<unsigned long long>(stats.combined),
                stats.injected ? 100.0 * stats.combined /
                                     static_cast<double>(stats.injected)
                               : 0.0);
    std::printf("killed:          %llu\n",
                static_cast<unsigned long long>(stats.killed));
    std::printf("one-way transit: %.2f cycles (max %.0f)\n",
                stats.oneWayTransit.mean(), stats.oneWayTransit.max());
    std::printf("round trip:      %.2f cycles (p50 %llu, p95 %llu, "
                "p99 %llu)\n",
                stats.roundTrip.mean(),
                static_cast<unsigned long long>(
                    stats.roundTripHist.percentile(0.5)),
                static_cast<unsigned long long>(
                    stats.roundTripHist.percentile(0.95)),
                static_cast<unsigned long long>(
                    stats.roundTripHist.percentile(0.99)));
    std::printf("access time:     %.2f cycles (incl. issue wait)\n",
                exp.pni().stats().accessTime.mean());
    std::printf("MM queue wait:   %.2f cycles\n",
                stats.mmQueueWait.mean());
    if (latency) {
        std::printf("latency records: %llu delivered, %llu combined "
                    "away, %llu MM cycles saved, %llu invariant "
                    "violations\n",
                    static_cast<unsigned long long>(
                        latency->delivered()),
                    static_cast<unsigned long long>(
                        latency->combinedDelivered()),
                    static_cast<unsigned long long>(
                        latency->mmCyclesSaved()),
                    static_cast<unsigned long long>(
                        latency->violations()));
    }
    const obs::ModelReport &mr = model.report();
    if (mr.applicable) {
        std::printf("model transit:   %.2f cycles predicted vs %.2f "
                    "measured (drift %+.1f%%)\n",
                    mr.predictedTransit, mr.measuredTransit,
                    100.0 * mr.drift);
    }
    if (!written)
        return 1;
    if (obs.checkDrift) {
        if (!mr.applicable) {
            std::fprintf(stderr,
                         "--check-drift: configuration violates model "
                         "assumptions (need --uniform --policy none "
                         "--queue 0, open-loop uniform traffic)\n");
            return 2;
        }
        if (!model_ok)
            return 3;
    }
    return 0;
}

/** One `ultrasim app` workload's --n: its default, its smallest legal
 *  value, and the shared words the app allocates at a given n, so an
 *  --n too big for the machine exits 2 instead of exhausting shared
 *  memory mid-setup. */
struct AppSize
{
    const char *app;
    std::uint64_t defaultN;
    std::uint64_t minN;
    double (*sharedWords)(double n);
};

const AppSize kAppSizes[] = {
    // matrix, d, e, u, p, scratch[4], barrier[2]
    {"tred2", 32, 2, [](double n) { return n * n + 4 * n + 6; }},
    // two grids, barrier
    {"weather", 32, 1, [](double n) { return 2 * n * n + 2; }},
    // u, f, r at every level 1..n of (2^lev + 1)^2 points, barrier
    {"multigrid", 5, 2,
     [](double level) {
         double words = 2;
         for (double lev = 1; lev <= std::min(level, 64.0); ++lev) {
             const double side = std::ldexp(1.0, static_cast<int>(lev)) + 1;
             words += 3 * side * side;
         }
         return words;
     }},
    // next-particle counter, tally bins
    {"montecarlo", 512, 0,
     [](double) { return 1.0 + apps::MonteCarloConfig{}.bins; }},
    // balances, reader-writer lock
    {"accounts", 64, 2, [](double n) { return n + 4; }},
    // CSR graph of 4 edges/vertex, dist, counters, 4n+64-slot queue
    {"sssp", 64, 2, [](double n) { return 22 * n + 199; }},
};

int
cmdApp(const Args &args)
{
    args.rejectUnknown("app", {"app", "pes", "n", "contexts",
                               ULTRASIM_OBS_FLAGS});
    const auto fail = [](const std::string &msg) {
        std::fprintf(stderr, "ultrasim app: %s\n", msg.c_str());
        return 2;
    };
    const std::string app = args.getString("app", "tred2");
    const AppSize *size = nullptr;
    for (const AppSize &s : kAppSizes)
        size = app == s.app ? &s : size;
    if (size == nullptr)
        return fail("unknown app '" + app + "'");
    const auto pes =
        static_cast<std::uint32_t>(args.getInt("pes", 16, 4096));
    if (pes < 1)
        return fail("--pes expects an integer in [1, 4096], got 0");
    const auto contexts =
        static_cast<std::uint32_t>(args.getInt("contexts", 1));
    if (app == "tred2" && (contexts < 1 || pes % contexts != 0)) {
        return fail("--contexts must divide --pes, got " +
                    std::to_string(contexts));
    }
    const std::uint64_t n = args.getInt("n", size->defaultN);
    if (n < size->minN) {
        return fail("--n expects at least " +
                    std::to_string(size->minN) + " for " + app +
                    ", got " + std::to_string(n));
    }
    core::MachineConfig mcfg = core::MachineConfig::small(
        std::bit_ceil(std::max<std::uint32_t>(16, pes)), 2);
    mcfg.net.combinePolicy = net::CombinePolicy::Full;
    const double words = size->sharedWords(static_cast<double>(n));
    const double total = static_cast<double>(mcfg.net.numPorts) *
                         static_cast<double>(mcfg.wordsPerModule);
    if (words > total) {
        std::ostringstream os;
        os << "--n " << n << " needs " << std::fixed
           << std::setprecision(0) << words << " shared words for "
           << app << "; the " << mcfg.net.numPorts
           << "-port machine has " << total;
        return fail(os.str());
    }

    Cycle cycles = 0;
    pe::PeStats totals;
    double access = 0.0;
    core::Machine machine(mcfg);
    const ObsOptions obs = ObsOptions::from(args);
    obs::EventTrace trace;
    if (!obs.traceEvents.empty())
        machine.attachEventTrace(&trace);
    if (obs.latencyWanted())
        machine.enableLatency();
    if (!obs.profJson.empty())
        machine.enableProfiling();
    if (obs.sampling())
        machine.enableSampling(obs.sampleEvery);
    std::unique_ptr<inspect::InspectServer> iserver;
    inspect::Targets itargets;
    itargets.network = &machine.network();
    itargets.memory = &machine.memory();
    itargets.hash = &machine.addressHash();
    itargets.registry = &machine.registry();
    itargets.latency = machine.latency();
    itargets.prof = machine.profiler();
    std::unique_ptr<inspect::Inspector> inspector =
        makeInspector(args, iserver, itargets);
    if (inspector) {
        machine.setCycleHook([&inspector](Cycle now) {
            inspector->atCycleBoundary(now);
        });
    }
    if (app == "tred2") {
        const auto result = apps::tred2Parallel(
            machine, pes, apps::randomSymmetric(n, 1), n, contexts);
        cycles = result.cycles;
        totals = result.peTotals;
        std::printf("tred2: N=%llu, %u workers on %u PEs, "
                    "waiting/worker %.0f cycles\n",
                    static_cast<unsigned long long>(n), pes,
                    pes / contexts, result.waitingTime);
    } else if (app == "weather") {
        apps::WeatherConfig wcfg;
        wcfg.rows = n;
        wcfg.cols = wcfg.rows;
        wcfg.steps = 4;
        const auto result = apps::weatherParallel(
            machine, pes, wcfg, apps::weatherInitial(wcfg, 1));
        cycles = result.cycles;
        totals = result.peTotals;
        std::printf("weather: %zux%zu grid, %u steps, %u PEs\n",
                    wcfg.rows, wcfg.cols, wcfg.steps, pes);
    } else if (app == "multigrid") {
        apps::MultigridConfig gcfg;
        gcfg.level = static_cast<unsigned>(n);
        const auto result = apps::multigridParallel(
            machine, pes, gcfg, apps::multigridRhs(gcfg.level));
        cycles = result.cycles;
        totals = result.peTotals;
        std::printf("multigrid: level %u (%zu^2 grid), residual "
                    "%.2e, %u PEs\n",
                    gcfg.level, apps::multigridSide(gcfg.level),
                    result.residualNorm, pes);
    } else if (app == "montecarlo") {
        apps::MonteCarloConfig ccfg;
        ccfg.particles = n;
        const auto result =
            apps::monteCarloParallel(machine, pes, ccfg);
        cycles = result.cycles;
        totals = result.peTotals;
        std::printf("montecarlo: %llu particles, %u PEs\n",
                    static_cast<unsigned long long>(ccfg.particles),
                    pes);
    } else if (app == "accounts") {
        apps::AccountsConfig acfg;
        acfg.numAccounts = static_cast<std::uint32_t>(n);
        const auto result = apps::runAccounts(machine, pes, acfg);
        cycles = result.cycles;
        totals = machine.aggregatePeStats();
        std::printf("accounts: %u accounts, total %lld (conserved: "
                    "%s), %u PEs\n",
                    acfg.numAccounts,
                    static_cast<long long>(result.total),
                    result.total == static_cast<Word>(
                                        acfg.numAccounts) *
                                        acfg.initialBalance
                        ? "yes"
                        : "NO",
                    pes);
    } else {
        const apps::Graph graph = apps::randomGraph(n, 4, 1);
        const auto result = apps::shortestPathsParallel(
            machine, pes, graph, 0, true);
        cycles = result.cycles;
        totals = result.peTotals;
        std::printf("sssp: %zu vertices, %zu edges, %llu "
                    "relaxations, %u PEs\n",
                    graph.numVertices, graph.numEdges(),
                    static_cast<unsigned long long>(
                        result.relaxations),
                    pes);
    }
    if (inspector)
        inspector->finishRun(machine.now(), true);
    access = machine.pni().stats().accessTime.mean();

    std::printf("simulated time:  %llu cycles\n",
                static_cast<unsigned long long>(cycles));
    std::printf("instructions:    %llu (%.2f mem refs/instr, %.3f "
                "shared)\n",
                static_cast<unsigned long long>(totals.instructions),
                static_cast<double>(totals.sharedRefs +
                                    totals.privateRefs) /
                    static_cast<double>(totals.instructions),
                static_cast<double>(totals.sharedRefs) /
                    static_cast<double>(totals.instructions));
    std::printf("CM access time:  %.2f cycles\n", access);
    std::printf("combined:        %llu requests\n",
                static_cast<unsigned long long>(
                    machine.network().stats().combined));
    std::printf("\n%s", machine.statsReport().c_str());

    bool written = true;
    if (!obs.statsJson.empty()) {
        written &= writeTextFile(obs.statsJson,
                                 machine.statsJson(obs.dumpOptions()));
    }
    if (!obs.sampleOut.empty())
        written &= machine.sampler().save(obs.sampleOut);
    if (!obs.traceEvents.empty())
        written &= trace.save(obs.traceEvents);
    if (machine.latencyEnabled()) {
        if (!obs.latencyJson.empty()) {
            written &= writeTextFile(obs.latencyJson,
                                     machine.latencyJson() + "\n");
        }
        if (!obs.heatmapCsv.empty()) {
            written &= writeTextFile(obs.heatmapCsv,
                                     machine.latency()->heatmapCsv());
        }
    }
    if (machine.profilingEnabled()) {
        written &= writeTextFile(obs.profJson,
                                 machine.profiler()->reportJson() + "\n");
    }
    return written ? 0 : 1;
}

int
cmdModel(const Args &args)
{
    args.rejectUnknown("model",
                       {"ports", "k", "m", "d", "best", "rate",
                        "budget"});
    if (args.has("best")) {
        // Cheapest configuration meeting a latency budget at a load.
        const double p = args.getFraction("rate", 0.2);
        const double budget = args.getDouble("budget", 20.0);
        const std::uint64_t n = args.getInt("ports", 4096);
        const auto best = analytic::cheapestConfiguration(n, p, budget);
        if (best.d == 0) {
            std::printf("no configuration meets T <= %.1f at p = %.2f "
                        "for n = %llu\n",
                        budget, p, static_cast<unsigned long long>(n));
            return 1;
        }
        std::printf("cheapest feasible: k=%u m=%u d=%u  (T = %.2f "
                    "cycles, cost C = %.3f, capacity %.2f)\n",
                    best.k, best.m, best.d,
                    analytic::transitTime(best, p), best.costFactor(),
                    best.capacity());
        return 0;
    }
    analytic::NetworkConfig cfg;
    cfg.n = args.getInt("ports", 4096);
    cfg.k = static_cast<unsigned>(args.getInt("k", 4));
    cfg.m = static_cast<unsigned>(args.getInt("m", cfg.k));
    cfg.d = static_cast<unsigned>(args.getInt("d", 1));
    if (!cfg.valid()) {
        std::fprintf(stderr, "invalid model configuration\n");
        return 2;
    }
    std::printf("T(p) for n=%llu k=%u m=%u d=%u "
                "(capacity %.3f msgs/PE/cycle, cost C=%.3f)\n",
                static_cast<unsigned long long>(cfg.n), cfg.k, cfg.m,
                cfg.d, cfg.capacity(), cfg.costFactor());
    TextTable table;
    table.setHeader({"p", "transit (cycles)"});
    const auto curve =
        analytic::sweepTransitTime(cfg, cfg.capacity() * 0.98, 14);
    for (std::size_t i = 0; i < curve.load.size(); ++i) {
        table.addRow({TextTable::fmt(curve.load[i], 3),
                      curve.transit[i] < 1e30
                          ? TextTable::fmt(curve.transit[i], 2)
                          : "inf"});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdTrace(const Args &args)
{
    args.rejectUnknown("trace",
                       {"record", "replay", "app", "pes", "n", "ports",
                        "k", "m", "d", "queue", "policy", "burroughs",
                        "ideal", "uniform"});
    if (args.has("record")) {
        const std::string path = args.getString("record", "trace.csv");
        const std::string app = args.getString("app", "tred2");
        const auto pes =
            static_cast<std::uint32_t>(args.getInt("pes", 16));
        core::MachineConfig mcfg = core::MachineConfig::small(
            std::max<std::uint32_t>(64, pes), 2);
        core::Machine machine(mcfg);
        net::TraceRecorder recorder(machine.pni());
        if (app == "tred2") {
            const std::size_t n = args.getInt("n", 32);
            (void)apps::tred2Parallel(
                machine, pes, apps::randomSymmetric(n, 1), n);
        } else if (app == "weather") {
            apps::WeatherConfig wcfg;
            wcfg.rows = args.getInt("n", 32);
            wcfg.cols = wcfg.rows;
            (void)apps::weatherParallel(
                machine, pes, wcfg, apps::weatherInitial(wcfg, 1));
        } else {
            std::fprintf(stderr, "trace --record supports tred2 and "
                                 "weather\n");
            return 2;
        }
        const net::Trace trace = recorder.take();
        net::saveTrace(trace, path);
        std::printf("recorded %zu requests over %llu cycles to %s "
                    "(intensity %.4f/PE/cycle)\n",
                    trace.entries.size(),
                    static_cast<unsigned long long>(trace.duration()),
                    path.c_str(), trace.intensity(pes));
        return 0;
    }
    if (args.has("replay")) {
        const std::string path = args.getString("replay", "trace.csv");
        const net::Trace trace = net::loadTrace(path);
        const net::NetSimConfig ncfg = netConfigFrom(args);
        mem::MemoryConfig mcfg;
        mcfg.numModules = ncfg.numPorts;
        mcfg.wordsPerModule = 1 << 14;
        mem::MemorySystem memory(mcfg);
        net::Network network(ncfg, memory);
        mem::AddressHash hash(log2Exact(memory.totalWords()), true);
        net::PniArray pni(net::PniConfig{}, network, hash);
        const auto result = net::replayTrace(trace, pni, network);
        std::printf("replayed %llu requests: mean access %.2f cycles, "
                    "one-way %.2f, finished at %llu\n",
                    static_cast<unsigned long long>(result.requests),
                    result.meanAccessTime, result.meanOneWay,
                    static_cast<unsigned long long>(result.finishedAt));
        return 0;
    }
    std::fprintf(stderr, "trace needs --record FILE or --replay FILE\n");
    return 2;
}

int
cmdPack(const Args &args)
{
    args.rejectUnknown("pack", {"ports"});
    const auto pkg =
        analytic::packageMachine(args.getInt("ports", 4096));
    std::printf("PEs: %llu\nchips: %llu PE + %llu MM + %llu network "
                "= %llu total (%.1f%% network)\n",
                static_cast<unsigned long long>(pkg.numPe),
                static_cast<unsigned long long>(pkg.peChips),
                static_cast<unsigned long long>(pkg.mmChips),
                static_cast<unsigned long long>(pkg.networkChips),
                static_cast<unsigned long long>(pkg.totalChips()),
                100.0 * pkg.networkFraction());
    if (pkg.peBoards) {
        std::printf("boards: %llu PE boards of %llu chips, %llu MM "
                    "boards of %llu chips\n",
                    static_cast<unsigned long long>(pkg.peBoards),
                    static_cast<unsigned long long>(
                        pkg.chipsPerPeBoard),
                    static_cast<unsigned long long>(pkg.mmBoards),
                    static_cast<unsigned long long>(
                        pkg.chipsPerMmBoard));
    }
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    // `ultrasim serve ADDR` (also spelled `ultrasim --serve ADDR`):
    // the persistent job server; see src/sweep/serve.h for the
    // protocol.
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "serve needs a port or unix-socket path\n");
        usage();
        return 2;
    }
    const std::string addr = argv[2];
    const Args args(argc, argv, 3);
    args.rejectUnknown("serve", {"cache"});
    sweep::ServeOptions opts;
    opts.cacheCapacity = args.getInt("cache", 4);
    return sweep::serveMain(addr, opts);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: ultrasim <net|app|model|pack|trace> "
                 "[options]\n"
                 "       ultrasim serve <port|unix-socket> "
                 "[--cache N]\n"
                 "see the comment at the top of tools/ultrasim.cc\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "serve" || cmd == "--serve")
        return cmdServe(argc, argv);
    const Args args(argc, argv, 2);
    if (cmd == "net")
        return cmdNet(args);
    if (cmd == "app")
        return cmdApp(args);
    if (cmd == "model")
        return cmdModel(args);
    if (cmd == "pack")
        return cmdPack(args);
    if (cmd == "trace")
        return cmdTrace(args);
    usage();
    return 2;
}
