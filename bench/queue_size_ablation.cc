/**
 * @file
 * Section 4.2 remark reproduction: "Simulations have shown that queues
 * of modest size (18) give essentially the same performance as
 * infinite queues."
 *
 * Uniform traffic at a moderate intensity through a 256-port network
 * of 2x2 switches; the ToMM/ToPE queue capacity is swept from barely
 * one message up to unbounded.  Expected shape: transit time and
 * accepted throughput converge by ~15-18 packets of queue capacity.
 */

#include <cstdio>

#include "bench/bench_util.h"

namespace
{

using namespace ultra;

struct Result
{
    double transit;
    double accepted;
    double issueWait;
};

Result
runCapacity(std::uint32_t capacity_packets, double rate)
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = 256;
    ncfg.k = 2;
    ncfg.m = 2;
    ncfg.sizing = net::PacketSizing::ByContent;
    ncfg.queueCapacityPackets = capacity_packets;
    ncfg.mmPendingCapacityPackets = capacity_packets;
    ncfg.combinePolicy = net::CombinePolicy::None;

    net::TrafficConfig tcfg;
    tcfg.activePes = 256;
    tcfg.rate = rate;
    tcfg.loadFraction = 0.5;
    tcfg.storeFraction = 0.3;
    tcfg.addrSpaceWords = 1 << 16;
    tcfg.seed = 3;

    net::PniConfig pcfg;
    pcfg.maxOutstanding = 0;

    bench::TrafficRig rig(ncfg, tcfg, true, pcfg);
    const Cycle cycles = 8000;
    rig.measure(2000, cycles);
    Result out;
    out.transit = rig.network.stats().oneWayTransit.mean();
    out.accepted = static_cast<double>(rig.network.stats().injected) /
                   static_cast<double>(cycles) / 256.0;
    out.issueWait = rig.pni.stats().issueWait.mean();
    return out;
}

} // namespace

int
main()
{
    std::printf("Section 4.2: finite queues vs infinite queues "
                "(256 ports, 2x2, p = 0.18)\n\n");
    TextTable table;
    table.setHeader({"queue capacity (packets)", "one-way transit",
                     "accepted/PE/cycle", "mean issue wait"});
    const double rate = 0.18;
    for (std::uint32_t cap : {3u, 6u, 9u, 12u, 15u, 18u, 24u, 48u}) {
        const auto r = runCapacity(cap, rate);
        table.addRow({std::to_string(cap), TextTable::fmt(r.transit, 2),
                      TextTable::fmt(r.accepted, 3),
                      TextTable::fmt(r.issueWait, 2)});
    }
    const auto inf = runCapacity(0, rate);
    table.addRow({"unbounded", TextTable::fmt(inf.transit, 2),
                  TextTable::fmt(inf.accepted, 3),
                  TextTable::fmt(inf.issueWait, 2)});
    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: performance converges to the "
                "unbounded-queue value by ~15-18 packets.\n");
    return 0;
}
