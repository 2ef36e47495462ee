/**
 * @file
 * Golden-model regression suite: pins the paper-anchored results --
 * Table-1-style network traffic on a scaled Table-1 configuration,
 * Fig-7 transit times across offered loads, and end-to-end application
 * runs (TRED2 with one and two contexts per PE, multigrid, weather,
 * SSSP), plus Burroughs kill-on-conflict mode under
 * hot-spot traffic -- as checked-in JSON, and asserts that a run
 * reproduces each golden byte-for-byte.
 *
 * Regenerating (after an intentional simulation-semantics change):
 *
 *     ULTRA_REGEN_GOLDEN=1 ./golden_test
 *
 * then commit the rewritten tests/golden JSON files alongside the change
 * that moved the numbers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "apps/multigrid.h"
#include "apps/shortest_path.h"
#include "apps/tred2.h"
#include "apps/weather.h"
#include "core/machine.h"
#include "inspect/inspector.h"
#include "inspect/server.h"
#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "net/pni.h"
#include "net/traffic.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "pe/task.h"

#ifndef ULTRA_GOLDEN_DIR
#error "build must define ULTRA_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace ultra
{
namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(ULTRA_GOLDEN_DIR) + "/" + name + ".json";
}

bool
regenRequested()
{
    const char *env = std::getenv("ULTRA_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Produce @p name and compare (or regenerate) the golden file. */
void
checkGolden(const std::string &name, const std::string (*produce)())
{
    const std::string solo = produce();
    ASSERT_FALSE(solo.empty());
    const std::string path = goldenPath(name);
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << solo;
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << path
        << "; run with ULTRA_REGEN_GOLDEN=1 to create it";
    EXPECT_EQ(solo, golden)
        << name << " diverged from its golden; if the simulation "
        << "semantics changed intentionally, regenerate with "
        << "ULTRA_REGEN_GOLDEN=1";
}

std::string
fmt(double value)
{
    std::ostringstream os;
    obs::writeJsonNumber(os, value);
    return os.str();
}

// ------------------------------------------------------------------
// Scaled Table-1 network traffic
// ------------------------------------------------------------------

/**
 * The Table-1 machine scaled to 256 ports (same k=4 switches,
 * by-content packet sizing, 3-packet data messages, 15-packet queues,
 * 2-cycle MMs) driven open-loop at the paper's nominal intensity.
 */
const std::string
netTable1Scaled()
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = 256;
    ncfg.k = 4;
    ncfg.m = 2;
    ncfg.d = 1;
    ncfg.sizing = net::PacketSizing::ByContent;
    ncfg.queueCapacityPackets = 15;
    ncfg.mmPendingCapacityPackets = 15;
    ncfg.combinePolicy = net::CombinePolicy::Full;

    mem::MemoryConfig mcfg;
    mcfg.numModules = ncfg.numPorts;
    mcfg.wordsPerModule = 1 << 12;
    mem::MemorySystem memory(mcfg);
    net::Network network(ncfg, memory);
    mem::AddressHash hash(log2Exact(memory.totalWords()), true);
    net::PniConfig pcfg;
    pcfg.maxOutstanding = 8;
    net::PniArray pni(pcfg, network, hash);

    net::TrafficConfig tcfg;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = 0.12;
    tcfg.hotFraction = 0.05;
    tcfg.hotAddr = 13;
    tcfg.addrSpaceWords = std::uint64_t{ncfg.numPorts} << 8;
    tcfg.seed = 1;
    net::TrafficGenerator traffic(tcfg, pni, network);

    obs::Registry registry;
    network.registerStats(registry, "net");
    pni.registerStats(registry, "pni");
    memory.registerStats(registry, "mem");


    for (Cycle c = 0; c < 2000; ++c) {
        traffic.tick();
        pni.tick();
        network.tick();
    }
    return registry.jsonDump(network.now());
}

TEST(GoldenTest, NetTable1Scaled)
{
    checkGolden("net_table1_scaled", netTable1Scaled);
}

// ------------------------------------------------------------------
// Burroughs kill-on-conflict mode under hot-spot traffic
// ------------------------------------------------------------------

/**
 * The kill-on-conflict baseline (section 3.1.2) on two network copies
 * with a hot spot, saturated enough that most requests die.  Kill
 * callbacks are observable -- the PNI re-queues a killed request at
 * the front of its issue queue -- and in this run about 2,000 times a
 * PE loses two requests (on different copies or stages) in the same
 * cycle, so the golden pins the order in which kills fire.
 */
const std::string
netBurroughsHotspot()
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = 256;
    ncfg.k = 4;
    ncfg.d = 2;
    ncfg.sizing = net::PacketSizing::ByContent;
    ncfg.combinePolicy = net::CombinePolicy::None;
    ncfg.burroughsKill = true;

    mem::MemoryConfig mcfg;
    mcfg.numModules = ncfg.numPorts;
    mcfg.wordsPerModule = 1 << 10;
    mem::MemorySystem memory(mcfg);
    net::Network network(ncfg, memory);
    mem::AddressHash hash(log2Exact(memory.totalWords()), true);
    net::PniConfig pcfg;
    pcfg.maxOutstanding = 8;
    pcfg.killRetryDelay = 3;
    net::PniArray pni(pcfg, network, hash);

    net::TrafficConfig tcfg;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = 0.08;
    tcfg.hotFraction = 0.25;
    tcfg.hotAddr = 29;
    tcfg.addrSpaceWords = std::uint64_t{ncfg.numPorts} << 8;
    tcfg.seed = 5;
    net::TrafficGenerator traffic(tcfg, pni, network);

    obs::Registry registry;
    network.registerStats(registry, "net");
    pni.registerStats(registry, "pni");
    memory.registerStats(registry, "mem");


    for (Cycle c = 0; c < 1500; ++c) {
        traffic.tick();
        pni.tick();
        network.tick();
    }
    return registry.jsonDump(network.now());
}

TEST(GoldenTest, NetBurroughsHotspot)
{
    checkGolden("net_burroughs_hotspot", netBurroughsHotspot);
}

// ------------------------------------------------------------------
// Fig-7 transit times across offered loads
// ------------------------------------------------------------------

/** Uniform-sizing 64-port network (the Fig-7 simulation setup) swept
 *  over three offered loads; each load contributes its full registry
 *  dump, keyed by rate. */
const std::string
fig7Transit()
{
    std::ostringstream doc;
    doc << "{\n";
    const double rates[] = {0.1, 0.25, 0.4};
    bool first = true;
    for (double rate : rates) {
        net::NetSimConfig ncfg;
        ncfg.numPorts = 64;
        ncfg.k = 2;
        ncfg.m = 2;
        ncfg.sizing = net::PacketSizing::Uniform;
        ncfg.combinePolicy = net::CombinePolicy::Full;

        mem::MemoryConfig mcfg;
        mcfg.numModules = ncfg.numPorts;
        mcfg.wordsPerModule = 1 << 10;
        mem::MemorySystem memory(mcfg);
        net::Network network(ncfg, memory);
        mem::AddressHash hash(log2Exact(memory.totalWords()), true);
        net::PniArray pni(net::PniConfig{}, network, hash);

        net::TrafficConfig tcfg;
        tcfg.activePes = ncfg.numPorts;
        tcfg.rate = rate;
        tcfg.addrSpaceWords = 1 << 12;
        tcfg.seed = 42;
        net::TrafficGenerator traffic(tcfg, pni, network);

        obs::Registry registry;
        network.registerStats(registry, "net");
        pni.registerStats(registry, "pni");


        for (Cycle c = 0; c < 1500; ++c) {
            traffic.tick();
            pni.tick();
            network.tick();
        }
        if (!first)
            doc << ",\n";
        first = false;
        doc << "\"rate=" << fmt(rate)
            << "\": " << registry.jsonDump(network.now());
    }
    doc << "\n}\n";
    return doc.str();
}

TEST(GoldenTest, Fig7TransitTimes)
{
    checkGolden("fig7_transit", fig7Transit);
}

// ------------------------------------------------------------------
// End-to-end applications
// ------------------------------------------------------------------

/** Run TRED2 on @p machine and render the golden document (numerical
 *  result, completion time, full stats); shared between the plain
 *  produce function and the inspected-run identity test below. */
const std::string
tred2Doc(core::Machine &machine)
{
    const std::size_t n = 16;
    const auto matrix = apps::randomSymmetric(n, 1);
    const auto result = apps::tred2Parallel(machine, 8, matrix, n);

    std::ostringstream doc;
    doc << "{\n\"cycles\": " << result.cycles << ",\n\"diag\": [";
    for (std::size_t i = 0; i < result.tri.diag.size(); ++i)
        doc << (i ? ", " : "") << fmt(result.tri.diag[i]);
    doc << "],\n\"offdiag\": [";
    for (std::size_t i = 1; i < result.tri.offdiag.size(); ++i)
        doc << (i > 1 ? ", " : "") << fmt(result.tri.offdiag[i]);
    doc << "],\n\"stats\": " << machine.statsJson() << "\n}\n";
    return doc.str();
}

/** TRED2 (the paper's flagship workload): pins the numerical result
 *  (tridiagonal entries), the simulated completion time, and the full
 *  machine stats. */
const std::string
appTred2()
{
    core::Machine machine(core::MachineConfig::small(64, 2));
    return tred2Doc(machine);
}

TEST(GoldenTest, AppTred2)
{
    checkGolden("app_tred2", appTred2);
}

/** The TRED2 run with a live inspection session riding along: start
 *  paused, arm a cycle watchpoint, dump a switch and the live stats at
 *  the hit, then detach and let it finish.  Read-only inspection must
 *  not move a single byte of the golden document. */
const std::string
appTred2Inspected()
{
    core::Machine machine(core::MachineConfig::small(64, 2));

    std::string err;
    auto server = inspect::InspectServer::listen("0", err);
    EXPECT_NE(server, nullptr) << err;
    if (server == nullptr)
        return "";
    inspect::Targets targets;
    targets.network = &machine.network();
    targets.memory = &machine.memory();
    targets.hash = &machine.addressHash();
    targets.registry = &machine.registry();
    inspect::Inspector inspector(*server, targets, true);
    machine.setCycleHook([&inspector](Cycle now) {
        inspector.atCycleBoundary(now);
    });

    // The attached client, scripted on a side thread; the simulation
    // holds at cycle 0 until its "resume" arrives.
    std::thread driver([port = server->port()] {
        std::string cerr;
        auto client =
            inspect::InspectClient::connect(std::to_string(port), cerr);
        EXPECT_NE(client, nullptr) << cerr;
        if (client == nullptr)
            return;
        auto req = [&client](const std::string &line) {
            EXPECT_TRUE(client->sendLine(line));
            std::string reply;
            while (client->recvLine(reply, 15000)) {
                if (reply.find("\"ok\"") != std::string::npos)
                    return;
            }
            ADD_FAILURE() << "no reply to " << line;
        };
        req("{\"cmd\":\"watch\",\"cycle\":40}");
        req("{\"cmd\":\"resume\"}");
        std::string line;
        while (client->recvLine(line, 15000)) {
            if (line.find("\"watchpoint\"") != std::string::npos)
                break;
        }
        req("{\"cmd\":\"switch\",\"copy\":0,\"stage\":0,\"index\":0}");
        req("{\"cmd\":\"stats\",\"prefix\":\"\"}");
        req("{\"cmd\":\"detach\"}");
    });

    const std::string doc = tred2Doc(machine);
    driver.join();
    machine.setCycleHook(nullptr);
    EXPECT_FALSE(inspector.pokeUsed());
    return doc;
}

TEST(GoldenTest, InspectedRunMatchesGolden)
{
    if (regenRequested())
        GTEST_SKIP() << "golden regeneration run";
    const std::string golden = readFile(goldenPath("app_tred2"));
    ASSERT_FALSE(golden.empty())
        << "missing golden " << goldenPath("app_tred2")
        << "; run golden_test with ULTRA_REGEN_GOLDEN=1 first";
    EXPECT_EQ(appTred2Inspected(), golden)
        << "live inspection perturbed the run";
}

/** Multigrid Poisson solve: pins the residual, a solution checksum,
 *  the completion time, and the full machine stats. */
const std::string
appMultigrid()
{
    core::Machine machine(core::MachineConfig::small(64, 2));
    apps::MultigridConfig gcfg;
    gcfg.level = 4;
    const auto rhs = apps::multigridRhs(gcfg.level);
    const auto result =
        apps::multigridParallel(machine, 8, gcfg, rhs);

    double checksum = 0.0;
    for (double u : result.solution)
        checksum += u;
    std::ostringstream doc;
    doc << "{\n\"cycles\": " << result.cycles
        << ",\n\"residual\": " << fmt(result.residualNorm)
        << ",\n\"solution_sum\": " << fmt(checksum)
        << ",\n\"stats\": " << machine.statsJson() << "\n}\n";
    return doc.str();
}

TEST(GoldenTest, AppMultigrid)
{
    checkGolden("app_multigrid", appMultigrid);
}

/** TRED2 hardware-multiprogrammed (section 3.5): 16 workers as two
 *  contexts on each of 8 PEs, so a PE's ready contexts take turns on
 *  one pipeline. */
const std::string
appTred2Contexts()
{
    core::Machine machine(core::MachineConfig::small(16, 2));
    const std::size_t n = 16;
    const auto result = apps::tred2Parallel(
        machine, 16, apps::randomSymmetric(n, 1), n, 2);

    std::ostringstream doc;
    doc << "{\n\"cycles\": " << result.cycles
        << ",\n\"waiting\": " << fmt(result.waitingTime) << ",\n\"diag\": [";
    for (std::size_t i = 0; i < result.tri.diag.size(); ++i)
        doc << (i ? ", " : "") << fmt(result.tri.diag[i]);
    doc << "],\n\"stats\": " << machine.statsJson() << "\n}\n";
    return doc.str();
}

TEST(GoldenTest, AppTred2Contexts)
{
    checkGolden("app_tred2_contexts", appTred2Contexts);
}

/** Weather stencil: prefetched loads (startLoad, awaited after
 *  overlapping compute), pipelined stores and a fence per step. */
const std::string
appWeather()
{
    core::Machine machine(core::MachineConfig::small(16, 2));
    apps::WeatherConfig wcfg;
    wcfg.rows = 16;
    wcfg.cols = 16;
    wcfg.steps = 3;
    const auto result = apps::weatherParallel(
        machine, 16, wcfg, apps::weatherInitial(wcfg, 1));

    double checksum = 0.0;
    for (double v : result.grid)
        checksum += v;
    std::ostringstream doc;
    doc << "{\n\"cycles\": " << result.cycles
        << ",\n\"grid_sum\": " << fmt(checksum)
        << ",\n\"stats\": " << machine.statsJson() << "\n}\n";
    return doc.str();
}

TEST(GoldenTest, AppWeather)
{
    checkGolden("app_weather", appWeather);
}

/** Parallel SSSP through per-PE caches: block fills are pipelined
 *  loads, write-backs are posted stores, and the work queue is the
 *  fetch-and-add parallel queue. */
const std::string
appSssp()
{
    core::Machine machine(core::MachineConfig::small(16, 2));
    const apps::Graph graph = apps::randomGraph(48, 4, 1);
    const auto result =
        apps::shortestPathsParallel(machine, 8, graph, 0, true);

    Word checksum = 0;
    for (Word d : result.dist)
        checksum += d;
    std::ostringstream doc;
    doc << "{\n\"cycles\": " << result.cycles
        << ",\n\"dist_sum\": " << checksum
        << ",\n\"relaxations\": " << result.relaxations
        << ",\n\"stats\": " << machine.statsJson() << "\n}\n";
    return doc.str();
}

TEST(GoldenTest, AppSssp)
{
    checkGolden("app_sssp", appSssp);
}

} // namespace
} // namespace ultra
