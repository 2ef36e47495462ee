/**
 * @file
 * Design-goal 5 reproduction (sections 3.1.2-3.1.3): concurrent access
 * by multiple PEs to the same memory cell suffers no performance
 * penalty when requests combine -- "any number of concurrent memory
 * references to the same location can be satisfied in the time
 * required for just one central memory access".
 *
 * Every active PE repeatedly fetch-and-adds one shared coordination
 * variable (closed loop, one outstanding hot request per PE).  Three
 * switch designs are compared:
 *
 *   combining        -- the Ultracomputer switch (Full policy);
 *   no combining     -- plain queued message switching: the hot MM
 *                       serializes and total throughput is pinned at
 *                       one access per MM service time;
 *   kill-on-conflict -- the Burroughs-style baseline: conflicting
 *                       requests die and retry, adding a retry storm.
 *
 * Expected shape: with combining, per-op latency grows ~log N (the
 * depth of the combining tree) and aggregate F&A throughput grows
 * linearly in N; without combining throughput is flat at ~1/3 op per
 * cycle and access latency is queueing-dominated (completions are also
 * unfair under saturation -- requests deep in the congested tree wait
 * far longer than the mean).  Combined fraction approaches (N-1)/N.
 *
 * Every run carries a latency observatory; a decomposition violation
 * (lat.violations) in a combining run fails the bench with exit 1.
 * The observatory's full analytics are the lat.* stats of
 * `ultrasim net --latency`.
 */

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "obs/latency.h"

namespace
{

using namespace ultra;

struct HotResult
{
    double meanAccess; //!< PNI request -> value, includes issue wait
    double meanRtt;
    double opsPerCycle;
    double combinedFraction;
    std::uint64_t mmServed;
    std::uint64_t violations; //!< latency decomposition failures
};

HotResult
runHot(std::uint32_t ports, net::CombinePolicy policy, bool burroughs)
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = ports;
    ncfg.k = 2;
    ncfg.m = 2;
    ncfg.sizing = net::PacketSizing::ByContent;
    ncfg.queueCapacityPackets = 15;
    ncfg.mmPendingCapacityPackets = 15;
    ncfg.combinePolicy = policy;
    ncfg.burroughsKill = burroughs;

    net::TrafficConfig tcfg;
    tcfg.activePes = ports;
    tcfg.closedLoop = true;
    tcfg.window = 1;
    tcfg.hotFraction = 1.0;
    tcfg.hotAddr = 13;
    tcfg.addrSpaceWords = 1 << 16;
    tcfg.seed = 11;

    net::PniConfig pcfg;
    // A PE re-issues the next hot F&A only after the previous returns,
    // so the unique-location rule is never violated.
    pcfg.maxOutstanding = 1;

    bench::TrafficRig rig(ncfg, tcfg, true, pcfg);
    // Attach before any traffic (the network must be quiescent); the
    // observatory therefore covers the warmup as well, unlike the
    // registry stats, which measure() resets.
    obs::LatencyShape shape;
    shape.stages = rig.network.topology().stages();
    shape.switchesPerStage = rig.network.topology().switchesPerStage();
    obs::LatencyObservatory latency(shape);
    rig.network.setLatencyObservatory(&latency);
    const Cycle cycles = 8000;
    rig.measure(2000, cycles);

    const auto &stats = rig.network.stats();
    HotResult out;
    out.meanAccess = rig.pni.stats().accessTime.mean();
    out.meanRtt = stats.roundTrip.mean();
    out.opsPerCycle = static_cast<double>(stats.delivered) /
                      static_cast<double>(cycles);
    out.combinedFraction =
        stats.injected
            ? static_cast<double>(stats.combined) /
                  static_cast<double>(stats.injected)
            : 0.0;
    out.mmServed = stats.mmServed;
    out.violations = latency.violations();
    return out;
}

} // namespace

int
main()
{
    std::printf("Claim 5: hot-spot fetch-and-add (every PE hammers one "
                "variable, window 1)\n\n");
    std::uint64_t violations = 0;
    TextTable table;
    table.setHeader({"N", "design", "access time (cycles)",
                     "net RTT", "F&A/cycle", "combined %",
                     "MM accesses"});
    for (std::uint32_t ports : {16u, 64u, 256u, 1024u}) {
        const auto full =
            runHot(ports, net::CombinePolicy::Full, false);
        violations += full.violations;
        const auto none =
            runHot(ports, net::CombinePolicy::None, false);
        const auto kill =
            runHot(ports, net::CombinePolicy::None, true);
        table.addRow({std::to_string(ports), "combining",
                      TextTable::fmt(full.meanAccess, 1),
                      TextTable::fmt(full.meanRtt, 1),
                      TextTable::fmt(full.opsPerCycle, 2),
                      TextTable::pct(full.combinedFraction),
                      std::to_string(full.mmServed)});
        table.addRow({std::to_string(ports), "no combining",
                      TextTable::fmt(none.meanAccess, 1),
                      TextTable::fmt(none.meanRtt, 1),
                      TextTable::fmt(none.opsPerCycle, 2),
                      TextTable::pct(none.combinedFraction),
                      std::to_string(none.mmServed)});
        table.addRow({std::to_string(ports), "kill-on-conflict",
                      TextTable::fmt(kill.meanAccess, 1),
                      TextTable::fmt(kill.meanRtt, 1),
                      TextTable::fmt(kill.opsPerCycle, 2),
                      TextTable::pct(kill.combinedFraction),
                      std::to_string(kill.mmServed)});
        table.addSeparator();
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: with combining, access time grows "
                "~log N and F&A throughput ~linearly in N\n(\"satisfied "
                "in the time required for just one central memory "
                "access\"); without,\nthe hot module serializes: "
                "throughput is pinned at 1/access-time and the access\n"
                "time a PE sees grows linearly with N.\n");
    if (violations != 0) {
        std::fprintf(stderr,
                     "latency decomposition violations: %llu\n",
                     static_cast<unsigned long long>(violations));
        return 1;
    }
    return 0;
}
