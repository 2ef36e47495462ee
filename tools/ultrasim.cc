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
 *
 * `trace` options:
 *   --record FILE --app NAME --pes P --n N    record an app's traffic,
 *     [--contexts K]                          checked, sized and run
 *                                             as for `app`
 *   --replay FILE [network options]           replay through a config
 *                                             (a bad line exits 2)
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
 *   --sample-every S       snapshot occupancy gauges every S >= 1
 *                          cycles, plus the run's final cycle
 *   --sample-out FILE      write the sampled time series as CSV (it
 *                          and --sample-every need each other)
 *   --trace-events FILE    Chrome trace-event JSON (load in Perfetto)
 *   --latency              attach the packet-lifecycle latency
 *                          observatory: its lat.* keys (per-stage
 *                          waits, combining effectiveness; on `app`
 *                          also lat.pe_wait_hist) join the stats dump
 *   --prof-json FILE       wall-clock self-profile of the host run:
 *                          per-phase times and their coverage of the
 *                          run (simulation output stays byte-identical;
 *                          read with `ultrascope --prof FILE`)
 *   --heatmap-csv FILE     stage x switch congestion heatmap (needs
 *                          --latency)
 *   --check-drift [TOL]    net only: fail (exit 3) when the measured
 *                          transit drifts more than TOL > 0 (default
 *                          0.15)
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
 * Flags parse strictly (src/common/cli.h): a bad flag or value exits 2
 * naming the flag, and a failed output-file write exits 1.  The network
 * and `net` options (--latency included) are the net parameters of a
 * sweep grid, declared once in src/sweep/grid.cc and resolved by
 * sweep::specFromParams just as a grid point is.  Only --latency adds
 * keys to the stats dump; every other observer leaves it unchanged.
 *
 * `net` options:
 *   --rate R       offered load, messages/PE/cycle, in [0, 1]
 *                  (default 0.1)
 *   --hot F        fraction of traffic to one hot F&A cell, in [0, 1]
 *                  (default 0)
 *   --cycles C     measured cycles, at least 1 (default 10000)
 *   --closed W     closed loop with window W >= 1 instead of open loop
 *   --seed S       traffic RNG seed, at most 2^53 (default 1); lets a
 *                  sweep point be reproduced as a standalone run
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
 *                  only; any other app exits 2)
 *
 * `model` options (each form takes only its own flags):
 *   --ports --k --m --d as above; sweeps p and prints the curve
 *   --best [--ports N] --rate R --budget T   cheapest config with
 *                                            T(R) <= budget
 *
 * Examples:
 *   ultrasim net --ports 1024 --k 4 --m 4 --d 2 --uniform --rate 0.15
 *   ultrasim net --hot 1 --policy none        # hot-spot, no combining
 *   ultrasim app --app tred2 --pes 16 --n 32 --contexts 2
 *   ultrasim model --ports 4096 --k 4 --m 4 --d 2
 *   ultrasim pack --ports 4096
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <initializer_list>
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
#include "common/cli.h"
#include "common/table.h"
#include "core/machine.h"
#include "inspect/inspector.h"
#include "inspect/server.h"
#include "net/trace.h"
#include "net/traffic.h"
#include "obs/event_trace.h"
#include "obs/latency.h"
#include "obs/model_check.h"
#include "sweep/grid.h"

namespace
{

using namespace ultra;

void usage();

using cli::Flags;
using cli::writeTextFile;

/** The shared observability options (--stats-json, --trace-events...). */
struct ObsOptions
{
    std::string statsJson;
    bool statsPretty = false;
    Cycle sampleEvery = 0;
    std::string sampleOut;
    std::string traceEvents;
    std::string profJson;
    std::string heatmapCsv;
    bool checkDrift = false;
    double driftTolerance = analytic::kDefaultDriftTolerance;

    /** Read the options; a flag that would do nothing without its
     *  partner (or a zero drift tolerance) exits 2 naming it. */
    static ObsOptions
    from(const Flags &args)
    {
        ObsOptions o;
        o.statsJson = args.getString("stats-json", "");
        o.statsPretty = args.flag("stats-pretty");
        o.sampleEvery = args.getInt("sample-every", 0, 1, UINT64_MAX);
        o.sampleOut = args.getString("sample-out", "");
        o.traceEvents = args.getString("trace-events", "");
        o.profJson = args.getString("prof-json", "");
        o.heatmapCsv = args.getString("heatmap-csv", "");
        for (const auto &[flag, partner] :
             {std::pair{"stats-pretty", "stats-json"},
              {"sample-every", "sample-out"},
              {"sample-out", "sample-every"},
              {"heatmap-csv", "latency"}}) {
            if (args.has(flag) && !args.has(partner))
                args.fail(std::string("--") + flag + " needs --" + partner);
        }
        o.checkDrift = args.has("check-drift");
        // A bare --check-drift keeps the default tolerance.
        const std::string tol = args.getString("check-drift", "");
        if (!tol.empty()) {
            o.driftTolerance = args.getDouble("check-drift", 0, 0, HUGE_VAL);
            if (o.driftTolerance == 0.0)
                args.fail(cli::badValue("check-drift", tol,
                                        "a positive number"));
        }
        return o;
    }
};

/** Attach every observer @p obs asks for to @p run, before it runs;
 *  @p trace records --trace-events. */
void
attachObservers(const ObsOptions &obs, core::Observed &run,
                obs::EventTrace &trace)
{
    if (!obs.traceEvents.empty())
        run.attachEventTrace(&trace);
    if (!obs.profJson.empty())
        run.enableProfiling();
    run.enableSampling(obs.sampleEvery);
}

/**
 * Write every output file @p obs names from the finished @p run.
 * False when a write fails.  The stats dump is sorted so repeated runs
 * diff cleanly (the library default, insertion order, is
 * golden-pinned).
 */
bool
writeObserverFiles(const ObsOptions &obs, const core::Observed &run,
                   const obs::EventTrace &trace)
{
    bool written = true;
    if (!obs.statsJson.empty()) {
        written &= writeTextFile(
            obs.statsJson,
            run.statsJson({.sortKeys = true, .pretty = obs.statsPretty}));
    }
    if (!obs.sampleOut.empty())
        written &= run.sampler().save(obs.sampleOut);
    if (!obs.traceEvents.empty())
        written &= trace.save(obs.traceEvents);
    if (!obs.heatmapCsv.empty())
        written &= writeTextFile(obs.heatmapCsv, run.latency()->heatmapCsv());
    if (run.profilingEnabled()) {
        written &= writeTextFile(obs.profJson,
                                 run.profiler()->reportJson() + "\n");
    }
    return written;
}

/** Flags shared by `net` and `app` (observability). */
#define ULTRASIM_OBS_FLAGS                                              \
    "stats-json", "stats-pretty", "sample-every", "sample-out",         \
        "trace-events", "prof-json", "heatmap-csv", "inspect"

/** Resolve every flag but @p own as net parameters, exactly as a grid
 *  point is resolved; a bad flag exits 2 naming it. */
sweep::NetPointSpec
specFromFlags(const Flags &args, sweep::FlagSurface surface,
              std::initializer_list<const char *> own)
{
    sweep::ParamMap params;
    std::string err;
    for (const auto &[name, text] : args.values()) {
        if (std::find(own.begin(), own.end(), name) == own.end() &&
            !sweep::paramFromFlag(surface, name, text, params, err)) {
            args.fail(err);
        }
    }
    const sweep::NetPointSpec spec = sweep::specFromParams(params, err);
    if (!err.empty())
        args.fail(err);
    return spec;
}

/**
 * Create the inspection server + engine for --inspect ADDR (exit 2 on
 * a bad address) over @p targets (the run's network, memory and hash)
 * plus @p run's observers, and install it as @p run's pause fence.
 * The run starts paused until a client resumes it, so a fast run
 * cannot finish before the client attaches.
 */
std::unique_ptr<inspect::Inspector>
makeInspector(const Flags &args,
              std::unique_ptr<inspect::InspectServer> &server,
              core::Observed &run, inspect::Targets targets)
{
    if (!args.has("inspect"))
        return nullptr;
    const std::string addr = args.getString("inspect", "");
    if (addr.empty())
        args.fail("--inspect needs a port or unix-socket path");
    std::string err;
    server = inspect::InspectServer::listen(addr, err);
    if (server == nullptr)
        args.fail("--inspect " + addr + ": " + err);
    std::fprintf(stderr,
                 "inspect: listening on %s (paused until a client "
                 "attaches and resumes)\n",
                 server->where().c_str());
    targets.registry = &run.registry();
    targets.latency = run.latency();
    targets.prof = run.profiler();
    auto inspector =
        std::make_unique<inspect::Inspector>(*server, targets, true);
    run.setCycleHook([fence = inspector.get()](Cycle now) {
        fence->atCycleBoundary(now);
    });
    return inspector;
}

int
cmdNet(const Flags &args)
{
    const ObsOptions obs = ObsOptions::from(args);

    // The experiment itself -- the rig, warmup/reset/measure loop,
    // model cross-check and observers -- lives in sweep::NetExperiment
    // so `ultrasim net` and the ultrasweep workers produce identical
    // bytes by sharing the code, not by replicating it.  This function
    // only resolves the flags as a grid point is resolved and wires
    // the byte-neutral observers as `app` does.
    sweep::NetPointSpec spec = specFromFlags(
        args, sweep::FlagSurface::Net, {ULTRASIM_OBS_FLAGS, "check-drift"});
    spec.driftTolerance = obs.driftTolerance;

    sweep::NetExperiment exp(spec);
    net::TrafficRig &rig = exp.rig();
    net::Network &network = rig.network;
    const Cycle cycles = spec.cycles;

    obs::EventTrace trace;
    attachObservers(obs, exp, trace);
    std::unique_ptr<inspect::InspectServer> iserver;
    std::unique_ptr<inspect::Inspector> inspector = makeInspector(
        args, iserver, exp,
        {.network = &network, .memory = &rig.memory, .hash = &rig.hash});
    if (inspector && exp.modelApplicable())
        inspector->setDriftProbe([&exp] { return exp.liveDrift(); });
    exp.run();

    const auto &stats = network.stats();
    const obs::ModelCrossCheck &model = exp.model();
    const obs::LatencyObservatory *const latency = exp.latency();

    // The run is over: let an attached client take final dumps (the
    // model.* stats are registered by now), then write the files.
    if (inspector)
        inspector->finishRun(network.now(), true);

    const bool written = writeObserverFiles(obs, exp, trace);
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
                rig.pni.stats().accessTime.mean());
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
        if (!exp.modelOk())
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

/** A checked `app` or `trace --record` workload and its machine. */
struct AppRun
{
    std::string app;
    std::uint32_t pes = 0;
    std::uint32_t contexts = 1;
    std::uint64_t n = 0;
    core::MachineConfig machine;
};

/**
 * Read --app, --pes, --contexts and --n and size the machine: the next
 * power of two at or above max(16, --pes) ports.  A value the workload
 * cannot run with exits 2 before any simulation.
 */
AppRun
appRunFrom(const Flags &args)
{
    AppRun run;
    run.app = args.getString("app", "tred2");
    const AppSize *size = nullptr;
    for (const AppSize &s : kAppSizes)
        size = run.app == s.app ? &s : size;
    if (size == nullptr)
        args.fail("unknown app '" + run.app + "'");
    run.pes = static_cast<std::uint32_t>(args.getInt("pes", 16, 1, 4096));
    if (run.app != "tred2" && args.has("contexts"))
        args.fail("--contexts is tred2 only, got --app " + run.app);
    run.contexts = static_cast<std::uint32_t>(args.getInt("contexts", 1));
    if (run.contexts < 1 || run.pes % run.contexts != 0) {
        args.fail("--contexts must divide --pes, got " +
                  std::to_string(run.contexts));
    }
    run.n = args.getInt("n", size->defaultN);
    if (run.n < size->minN) {
        args.fail("--n expects at least " + std::to_string(size->minN) +
                  " for " + run.app + ", got " + std::to_string(run.n));
    }
    run.machine = core::MachineConfig::small(
        std::bit_ceil(std::max<std::uint32_t>(16, run.pes)), 2);
    const double words = size->sharedWords(static_cast<double>(run.n));
    const double total = static_cast<double>(run.machine.net.numPorts) *
                         static_cast<double>(run.machine.wordsPerModule);
    if (words > total) {
        std::ostringstream os;
        os << "--n " << run.n << " needs " << std::fixed
           << std::setprecision(0) << words << " shared words for "
           << run.app << "; the " << run.machine.net.numPorts
           << "-port machine has " << total;
        args.fail(os.str());
    }
    return run;
}

/** Run @p run's workload on @p machine: the one app dispatch `app` and
 *  `trace --record` share.  @return the one-line summary `app` prints. */
std::string
runApp(core::Machine &machine, const AppRun &run)
{
    const auto &[app, pes, contexts, n, mcfg] = run;
    char line[256];
    if (app == "tred2") {
        const auto result = apps::tred2Parallel(
            machine, pes, apps::randomSymmetric(n, 1), n, contexts);
        std::snprintf(line, sizeof line,
                      "tred2: N=%llu, %u workers on %u PEs, "
                      "waiting/worker %.0f cycles",
                      static_cast<unsigned long long>(n), pes,
                      pes / contexts, result.waitingTime);
    } else if (app == "weather") {
        apps::WeatherConfig wcfg;
        wcfg.rows = n;
        wcfg.cols = wcfg.rows;
        wcfg.steps = 4;
        const auto result = apps::weatherParallel(
            machine, pes, wcfg, apps::weatherInitial(wcfg, 1));
        std::snprintf(line, sizeof line,
                      "weather: %zux%zu grid, %u steps, %u PEs",
                      wcfg.rows, wcfg.cols, wcfg.steps, pes);
    } else if (app == "multigrid") {
        apps::MultigridConfig gcfg;
        gcfg.level = static_cast<unsigned>(n);
        const auto result = apps::multigridParallel(
            machine, pes, gcfg, apps::multigridRhs(gcfg.level));
        std::snprintf(line, sizeof line,
                      "multigrid: level %u (%zu^2 grid), residual "
                      "%.2e, %u PEs",
                      gcfg.level, apps::multigridSide(gcfg.level),
                      result.residualNorm, pes);
    } else if (app == "montecarlo") {
        apps::MonteCarloConfig ccfg;
        ccfg.particles = n;
        const auto result =
            apps::monteCarloParallel(machine, pes, ccfg);
        std::snprintf(line, sizeof line,
                      "montecarlo: %llu particles, %u PEs",
                      static_cast<unsigned long long>(ccfg.particles),
                      pes);
    } else if (app == "accounts") {
        apps::AccountsConfig acfg;
        acfg.numAccounts = static_cast<std::uint32_t>(n);
        const auto result = apps::runAccounts(machine, pes, acfg);
        std::snprintf(line, sizeof line,
                      "accounts: %u accounts, total %lld (conserved: "
                      "%s), %u PEs",
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
        std::snprintf(line, sizeof line,
                      "sssp: %zu vertices, %zu edges, %llu "
                      "relaxations, %u PEs",
                      graph.numVertices, graph.numEdges(),
                      static_cast<unsigned long long>(
                          result.relaxations),
                      pes);
    }
    return line;
}

int
cmdApp(const Flags &args)
{
    args.rejectUnknown(
        {"app", "pes", "n", "contexts", "latency", ULTRASIM_OBS_FLAGS});
    const AppRun run = appRunFrom(args);
    const ObsOptions obs = ObsOptions::from(args);

    core::Machine machine(run.machine);
    if (args.flag("latency"))
        machine.enableLatency();
    obs::EventTrace trace;
    attachObservers(obs, machine, trace);
    std::unique_ptr<inspect::InspectServer> iserver;
    std::unique_ptr<inspect::Inspector> inspector = makeInspector(
        args, iserver, machine,
        {.network = &machine.network(),
         .memory = &machine.memory(),
         .hash = &machine.addressHash()});
    std::printf("%s\n", runApp(machine, run).c_str());
    if (inspector)
        inspector->finishRun(machine.now(), true);

    std::printf("\n%s", machine.statsReport().c_str());

    return writeObserverFiles(obs, machine, trace) ? 0 : 1;
}

int
cmdModel(const Flags &args)
{
    // Each path accepts only the flags it reads.
    if (args.flag("best")) {
        // Cheapest configuration meeting a latency budget at a load.
        args.rejectUnknown({"best", "ports", "rate", "budget"});
        const double p = args.getDouble("rate", 0.2, 0.0, 1.0);
        const double budget = args.getDouble("budget", 20, 0, HUGE_VAL);
        const std::uint64_t n = args.getInt("ports", 4096);
        if (n < 2 || !isPowerOfTwo(n)) {
            args.fail("--ports must be a power of two >= 2, got " +
                      std::to_string(n));
        }
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
    // Each flag is checked against its share of
    // analytic::NetworkConfig::valid(), so a bad one is named.
    args.rejectUnknown({"ports", "k", "m", "d"});
    analytic::NetworkConfig cfg;
    cfg.k = static_cast<unsigned>(args.getInt("k", 4));
    if (cfg.k < 2 || !isPowerOfTwo(cfg.k)) {
        args.fail(cli::badValue("k", std::to_string(cfg.k),
                                "a power of two >= 2"));
    }
    cfg.m = static_cast<unsigned>(args.getInt("m", cfg.k, 1, UINT32_MAX));
    cfg.d = static_cast<unsigned>(args.getInt("d", 1, 1, UINT32_MAX));
    cfg.n = args.getInt("ports", 4096);
    if (!cfg.valid()) {
        const std::uint64_t k = cfg.k;
        std::ostringstream os;
        os << "a power of --k = " << k << " (" << k << ", " << k * k
           << ", ...)";
        args.fail(cli::badValue("ports", std::to_string(cfg.n), os.str()));
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
cmdTrace(const Flags &args)
{
    if (args.has("record")) {
        args.rejectUnknown({"record", "app", "pes", "n", "contexts"});
        const std::string path = args.getString("record", "trace.csv");
        const AppRun run = appRunFrom(args);
        core::Machine machine(run.machine);
        net::TraceRecorder recorder(machine.pni());
        (void)runApp(machine, run);
        const net::Trace trace = recorder.take();
        if (!net::saveTrace(trace, path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("recorded %zu requests over %llu cycles to %s "
                    "(intensity %.4f/PE/cycle)\n",
                    trace.entries.size(),
                    static_cast<unsigned long long>(trace.duration()),
                    path.c_str(), trace.intensity(run.pes));
        return 0;
    }
    if (args.has("replay")) {
        const net::NetSimConfig ncfg =
            specFromFlags(args, sweep::FlagSurface::Replay, {"replay"}).net;
        const std::string path = args.getString("replay", "trace.csv");
        std::string err;
        const net::Trace trace = net::loadTrace(path, err);
        if (!err.empty())
            args.fail(err);
        // Entry i is line i + 1; a PE or address the replay network
        // lacks stops here instead of at an assertion.
        const Addr words =
            Addr{ncfg.numPorts} *
            net::TrafficRig::memConfigFor(ncfg).wordsPerModule;
        for (std::size_t i = 0; i < trace.entries.size(); ++i) {
            const net::TraceEntry &e = trace.entries[i];
            if (e.pe < ncfg.numPorts && e.vaddr < words)
                continue;
            args.fail(path + ":" + std::to_string(i + 1) + ": " +
                      (e.pe >= ncfg.numPorts
                           ? "PE " + std::to_string(e.pe) +
                                 " is outside the " +
                                 std::to_string(ncfg.numPorts) +
                                 "-port network"
                           : "address " + std::to_string(e.vaddr) +
                                 " is outside the " +
                                 std::to_string(words) + "-word memory"));
        }
        // The trace drives the rig's PNIs; its generator stays idle.
        net::TrafficRig rig(ncfg, {.activePes = 0});
        const auto result = net::replayTrace(trace, rig.pni, rig.network);
        std::printf("replayed %llu requests: mean access %.2f cycles, "
                    "one-way %.2f, finished at %llu\n",
                    static_cast<unsigned long long>(result.requests),
                    result.meanAccessTime, result.meanOneWay,
                    static_cast<unsigned long long>(result.finishedAt));
        return 0;
    }
    args.fail("needs --record FILE or --replay FILE");
}

int
cmdPack(const Flags &args)
{
    args.rejectUnknown({"ports"});
    const std::uint64_t ports = args.getInt("ports", 4096);
    const unsigned k = analytic::kSwitchDegree;
    if (!isPowerOfTwo(ports) || ports < k) {
        args.fail("--ports must be a power of two >= " + std::to_string(k) +
                  ", got " + std::to_string(ports));
    }
    const auto pkg = analytic::packageMachine(ports);
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

void
usage()
{
    std::fprintf(stderr,
                 "usage: ultrasim <net|app|model|pack|trace> "
                 "[options]\n"
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
    const Flags args("ultrasim " + cmd, usage, argc, argv, 2);
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
