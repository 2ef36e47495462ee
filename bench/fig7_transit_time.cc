/**
 * @file
 * Figure 7 reproduction: average network transit time T as a function
 * of traffic intensity p (messages per PE per network cycle) for the
 * candidate configurations -- k x k switches, multiplexing factor
 * m = k (bandwidth constant B = 1), and d network copies.
 *
 * Two tables:
 *   1. the analytic Kruskal-Snir curves for the paper's 4096-port
 *      machine, exactly the series plotted in Figure 7;
 *   2. a simulation cross-check on a 1024-port network: measured
 *      one-way head transit (uniform random traffic, uniform message
 *      sizing) against the analytic prediction for the same geometry,
 *      with the relative model drift of each point.
 *
 * Expected shape (paper section 4.1): at reasonable intensities the
 * duplexed 4x4 network is best; 8x8 d=6 is close at equal cost and has
 * the larger capacity (0.75 vs 0.5); every curve blows up at its
 * saturation load d/m.
 */

#include <cstdio>
#include <vector>

#include "analytic/config.h"
#include "analytic/drift.h"
#include "analytic/queueing.h"
#include "bench/bench_util.h"

namespace
{

using namespace ultra;

struct Config
{
    unsigned k;
    unsigned d;
};

constexpr Config kConfigs[] = {{2, 1}, {2, 2}, {4, 1},
                               {4, 2}, {8, 4}, {8, 6}};

analytic::NetworkConfig
analyticConfig(std::uint64_t n, const Config &cfg)
{
    analytic::NetworkConfig acfg;
    acfg.n = n;
    acfg.k = cfg.k;
    acfg.m = cfg.k; // B = k/m = 1
    acfg.d = cfg.d;
    return acfg;
}

void
printAnalyticCurves()
{
    std::printf("Figure 7 (analytic): transit time vs traffic "
                "intensity, n = 4096, m = k\n");
    TextTable table;
    std::vector<std::string> header = {"p"};
    for (const auto &cfg : kConfigs) {
        header.push_back("k=" + std::to_string(cfg.k) +
                         ",d=" + std::to_string(cfg.d));
    }
    table.setHeader(header);
    for (int i = 0; i <= 14; ++i) {
        const double p = 0.025 * i;
        std::vector<std::string> row = {TextTable::fmt(p, 3)};
        for (const auto &cfg : kConfigs) {
            row.push_back(bench::fmtOrInf(
                analytic::transitTime(analyticConfig(4096, cfg), p)));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    std::printf("cost factors C = d/(k lg k): ");
    for (const auto &cfg : kConfigs) {
        std::printf("k=%u,d=%u: %.3f  ", cfg.k, cfg.d,
                    analyticConfig(4096, cfg).costFactor());
    }
    std::printf("\n\n");
}

/** Measured one-way transit on a real simulated network. */
double
simulateTransit(unsigned k, unsigned d, double p, std::uint32_t ports)
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = ports;
    ncfg.k = k;
    ncfg.m = k;
    ncfg.d = d;
    ncfg.sizing = net::PacketSizing::Uniform;
    ncfg.queueCapacityPackets = 0; // infinite (analytic assumption)
    ncfg.mmPendingCapacityPackets = 0;
    ncfg.combinePolicy = net::CombinePolicy::None; // assumption 1

    net::TrafficConfig tcfg;
    tcfg.activePes = ports;
    tcfg.rate = p;
    tcfg.loadFraction = 0.0; // all data-carrying, uniform length
    tcfg.storeFraction = 1.0;
    tcfg.addrSpaceWords = std::uint64_t{ports} << 10;
    tcfg.seed = 42 + k + d;

    net::PniConfig pcfg;
    pcfg.maxOutstanding = 0; // open loop

    bench::TrafficRig rig(ncfg, tcfg, true, pcfg);
    rig.measure(2000, 8000);
    return rig.network.stats().oneWayTransit.mean();
}

void
runSimulationCheck()
{
    const std::uint32_t ports = 1024;
    std::printf("Simulation cross-check: n = %u, measured one-way "
                "head transit vs analytic\n",
                ports);
    std::printf("(measured includes the injection hop; analytic "
                "T + 1 is the comparable value)\n");
    TextTable table;
    table.setHeader({"config", "p", "analytic T+1", "simulated",
                     "drift"});
    for (const auto &cfg : std::vector<Config>{{2, 1}, {4, 1}, {4, 2}}) {
        const analytic::NetworkConfig acfg = analyticConfig(ports, cfg);
        for (double p : {0.05, 0.10, 0.15, 0.20}) {
            if (p >= acfg.capacity() * 0.92)
                continue;
            // The model's T(p) + injection hop against the sim.
            const double predicted =
                analytic::predictedSimTransit(acfg, p);
            const double measured =
                simulateTransit(cfg.k, cfg.d, p, ports);
            const double drift =
                analytic::transitDrift(acfg, p, measured);
            table.addRow({"k=" + std::to_string(cfg.k) +
                              ",d=" + std::to_string(cfg.d),
                          TextTable::fmt(p, 2),
                          TextTable::fmt(predicted, 1),
                          TextTable::fmt(measured, 1),
                          TextTable::fmt(100.0 * drift, 1) + "%"});
        }
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main()
{
    printAnalyticCurves();
    runSimulationCheck();
    return 0;
}
