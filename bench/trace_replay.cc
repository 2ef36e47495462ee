/**
 * @file
 * The section-4.2 methodology end to end: monitor the traffic a real
 * scientific program generates, then drive that recorded request
 * stream through alternative network configurations to isolate the
 * network's contribution to memory latency.
 *
 * The paper fed measured program characteristics into its queueing
 * models the same way (treating the program as a fixed traffic
 * source); replay is open loop for the same reason.
 */

#include <cstdio>

#include "apps/tred2.h"
#include "common/table.h"
#include "core/machine.h"
#include "mem/address_hash.h"
#include "net/trace.h"

namespace
{

using namespace ultra;

net::Trace
recordTred2Trace(std::uint32_t pes, std::size_t n)
{
    core::MachineConfig cfg = core::MachineConfig::small(64, 2);
    core::Machine machine(cfg);
    net::TraceRecorder recorder(machine.pni());
    (void)apps::tred2Parallel(machine, pes,
                              apps::randomSymmetric(n, 4), n);
    return recorder.take();
}

struct ReplayConfig
{
    const char *name;
    unsigned k;
    unsigned d;
    net::CombinePolicy policy;
};

net::ReplayResult
replayThrough(const net::Trace &trace, const ReplayConfig &rc)
{
    net::NetSimConfig ncfg;
    ncfg.numPorts = 64;
    ncfg.k = rc.k;
    ncfg.m = 2;
    ncfg.d = rc.d;
    ncfg.combinePolicy = rc.policy;
    mem::MemoryConfig mcfg;
    mcfg.numModules = 64;
    mcfg.wordsPerModule = 1 << 12;
    mem::MemorySystem memory(mcfg);
    net::Network network(ncfg, memory);
    mem::AddressHash hash(log2Exact(memory.totalWords()), true);
    net::PniConfig pcfg;
    net::PniArray pni(pcfg, network, hash);
    return net::replayTrace(trace, pni, network);
}

} // namespace

int
main()
{
    const std::uint32_t pes = 16;
    const std::size_t n = 32;
    std::printf("Recording the PNI request stream of TRED2 "
                "(N = %zu, %u PEs)...\n",
                n, pes);
    const net::Trace trace = recordTred2Trace(pes, n);
    std::printf("recorded %zu requests over %llu cycles "
                "(intensity %.4f req/PE/cycle)\n\n",
                trace.entries.size(),
                static_cast<unsigned long long>(trace.duration()),
                trace.intensity(pes));

    std::printf("Replaying the identical stream through alternative "
                "networks:\n");
    TextTable table;
    table.setHeader({"network", "mean access (cycles)",
                     "mean one-way", "finished at (cycles)"});
    const ReplayConfig configs[] = {
        {"2x2, d=1, combining", 2, 1, net::CombinePolicy::Full},
        {"2x2, d=1, no combining", 2, 1, net::CombinePolicy::None},
        {"2x2, d=2, combining", 2, 2, net::CombinePolicy::Full},
        {"4x4, d=1, combining", 4, 1, net::CombinePolicy::Full},
        {"4x4, d=2, combining", 4, 2, net::CombinePolicy::Full},
    };
    for (const auto &rc : configs) {
        const auto result = replayThrough(trace, rc);
        table.addRow({rc.name, TextTable::fmt(result.meanAccessTime, 2),
                      TextTable::fmt(result.meanOneWay, 2),
                      std::to_string(result.finishedAt)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nexpected shape: fewer stages (4x4) and more copies "
                "(d=2) shorten access; removing\ncombining hurts most "
                "on this trace's broadcast/barrier bursts.\n");
    return 0;
}
