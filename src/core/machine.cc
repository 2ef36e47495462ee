#include "machine.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/table.h"
#include "obs/event_trace.h"
#include "obs/json.h"

namespace ultra::core
{

MachineConfig
MachineConfig::paperTable1()
{
    MachineConfig cfg;
    cfg.net.numPorts = 4096;
    cfg.net.k = 4;
    cfg.net.m = 2;
    cfg.net.d = 1;
    cfg.net.sizing = net::PacketSizing::ByContent;
    cfg.net.dataPackets = 3;
    cfg.net.queueCapacityPackets = 15;
    cfg.net.mmPendingCapacityPackets = 15;
    cfg.net.combinePolicy = net::CombinePolicy::Full;
    cfg.net.mmAccessTime = 2;
    cfg.pe.instrTime = 2;
    cfg.wordsPerModule = 1 << 12;
    return cfg;
}

MachineConfig
MachineConfig::small(std::uint32_t ports, unsigned k)
{
    MachineConfig cfg;
    cfg.net.numPorts = ports;
    cfg.net.k = k;
    cfg.net.combinePolicy = net::CombinePolicy::Full;
    cfg.wordsPerModule = 1 << 12;
    return cfg;
}

namespace
{

mem::MemoryConfig
memoryConfigFor(const MachineConfig &cfg)
{
    mem::MemoryConfig mc;
    mc.numModules = cfg.net.numPorts;
    mc.wordsPerModule = cfg.wordsPerModule;
    mc.accessTime = cfg.net.mmAccessTime;
    return mc;
}

/** Simulated cycles between prof counter rows on an event trace:
 *  frequent enough to see phase-cost drift in the viewer, rare enough
 *  to stay invisible in the run's wall clock. */
constexpr Cycle kProfCounterPeriod = 64;

} // namespace

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), memory_(memoryConfigFor(cfg)),
      hash_(log2Exact(memory_.totalWords()), cfg.hashAddresses),
      network_(cfg.net, memory_), pni_(cfg.pni, network_, hash_)
{
    ULTRA_ASSERT(isPowerOfTwo(memory_.totalWords()),
                 "total memory must be a power of two for the hash");
    pes_.reserve(cfg_.net.numPorts);
    for (PEId pe = 0; pe < cfg_.net.numPorts; ++pe) {
        pes_.push_back(std::make_unique<pe::Pe>(pe, cfg_.pe, pni_,
                                                network_));
    }
    programs_.resize(cfg_.net.numPorts);
    pni_.setCompleteCallback(
        [this](PEId pe, std::uint64_t ticket, Word value) {
            pes_[pe]->onComplete(ticket, value);
        });
    registerMachineStats();
}

void
Machine::registerMachineStats()
{
    network_.registerStats(registry_, "net");
    pni_.registerStats(registry_, "pni");
    memory_.registerStats(registry_, "mem");

    registry_.addScalar("machine.pes_engaged",
                        [this] {
                            return static_cast<double>(launched_.size());
                        },
                        "PEs with a launched program");
    auto peTotal = [this](std::uint64_t pe::PeStats::*field) {
        return [this, field] {
            std::uint64_t total = 0;
            for (PEId pe : launched_)
                total += pes_[pe]->stats().*field;
            return static_cast<double>(total);
        };
    };
    registry_.addScalar("pe.instructions",
                        peTotal(&pe::PeStats::instructions),
                        "instructions executed (all engaged PEs)");
    registry_.addScalar("pe.shared_refs",
                        peTotal(&pe::PeStats::sharedRefs),
                        "central-memory references");
    registry_.addScalar("pe.shared_loads",
                        peTotal(&pe::PeStats::sharedLoads),
                        "central-memory loads");
    registry_.addScalar("pe.private_refs",
                        peTotal(&pe::PeStats::privateRefs),
                        "cache-hit data references");
    registry_.addScalar("pe.busy_cycles",
                        peTotal(&pe::PeStats::busyCycles),
                        "pipeline cycles executing instructions");
    registry_.addScalar("pe.idle_cycles",
                        peTotal(&pe::PeStats::idleCycles),
                        "per-context cycles waiting on memory");
}

void
Machine::launch(PEId pe, ProgramFn program)
{
    ULTRA_ASSERT(pe < pes_.size(), "no such PE: ", pe);
    ULTRA_ASSERT(!pes_[pe]->hasTask() || pes_[pe]->finished(),
                 "PE ", pe, " is still running a program");
    // Pin the callable first: a coroutine lambda's frame references its
    // closure object, which must outlive the task.
    pes_[pe]->setTask(pe::Task{}); // drop the old frames first
    programs_[pe].clear();
    programs_[pe].push_back(
        std::make_unique<ProgramFn>(std::move(program)));
    pes_[pe]->setTask((*programs_[pe].front())(*pes_[pe]));
    if (std::find(launched_.begin(), launched_.end(), pe) ==
        launched_.end()) {
        launched_.push_back(pe);
    }
}

void
Machine::launchExtra(PEId pe, ProgramFn program)
{
    ULTRA_ASSERT(pe < pes_.size(), "no such PE: ", pe);
    ULTRA_ASSERT(pes_[pe]->hasTask(),
                 "launchExtra needs a primary program; call launch() "
                 "first");
    programs_[pe].push_back(
        std::make_unique<ProgramFn>(std::move(program)));
    pes_[pe]->addTask((*programs_[pe].back())(*pes_[pe]));
    if (std::find(launched_.begin(), launched_.end(), pe) ==
        launched_.end()) {
        launched_.push_back(pe);
    }
}

void
Machine::launchAll(std::uint32_t count, const ProgramFn &program)
{
    ULTRA_ASSERT(count <= numPes());
    for (PEId pe = 0; pe < count; ++pe)
        launch(pe, program);
}

void
Machine::flushObservers()
{
    for (PEId pe : launched_)
        pes_[pe]->flushWaits(now());
    if (samplePeriod_ != 0 && sampler_.numColumns() > 0 &&
        lastSampleAt_ != now()) {
        sampler_.sample(now());
        lastSampleAt_ = now();
    }
}

bool
Machine::run(Cycle max_cycles)
{
    // PEs step in ascending id order.  Walk only the launched ones:
    // programs often engage a handful of PEs on a large machine.
    std::vector<PEId> step_order = launched_;
    std::sort(step_order.begin(), step_order.end());
    prof::Profiler *const prof = prof_.get();
    if (prof != nullptr)
        prof->runBegin();
    // Lap clock for phase attribution: each boundary stamps once and
    // charges the span since the previous stamp, so the phase times
    // tile the loop's wall clock with no double counting.  The network
    // laps its own sub-phases internally; we only re-stamp after it.
    std::uint64_t mark = prof != nullptr ? prof::Profiler::nowNs() : 0;
    const auto lap = [&](prof::Phase p) {
        if (prof == nullptr)
            return;
        const std::uint64_t next = prof::Profiler::nowNs();
        prof->phaseAdd(p, next - mark);
        mark = next;
    };
    const Cycle deadline = now() + max_cycles;
    bool finished_all = false;
    while (now() < deadline) {
        // Cycle-boundary yield point: the previous cycle's network tick
        // is done and no PE has stepped yet, so a hook (the
        // live-inspection pause fence) observes only consistent state
        // and may block here indefinitely.
        if (cycleHook_)
            cycleHook_(now());
        lap(prof::Phase::Hook);
        // The canonical cycle order (DESIGN.md "The cycle loop"): PEs
        // step, PNIs issue in PE-id order, the network and memory
        // advance, observers sample.
        const Cycle cycle = now();
        finished_all = true;
        for (PEId id : step_order) {
            pe::Pe &pe = *pes_[id];
            if (pe.runnable(cycle))
                pe.step(cycle);
            finished_all = finished_all && pe.finished();
        }
        lap(prof::Phase::PeStep);
        if (finished_all)
            break;
        pni_.tick();
        lap(prof::Phase::Pni);
        network_.tick();
        if (prof != nullptr)
            mark = prof::Profiler::nowNs();
        if (samplePeriod_ != 0 && now() % samplePeriod_ == 0) {
            sampler_.sample(now());
            lastSampleAt_ = now();
        }
        lap(prof::Phase::Sampler);
        if (prof != nullptr && eventTrace_ != nullptr &&
            now() % kProfCounterPeriod == 0)
            prof->flushCounters(*eventTrace_, now());
    }
    flushObservers();
    lap(prof::Phase::Sampler);
    if (prof != nullptr)
        prof->runEnd(now());
    return finished_all;
}

void
Machine::enableSampling(Cycle every)
{
    samplePeriod_ = every;
    if (every == 0 || sampler_.numColumns() > 0)
        return;
    for (unsigned s = 0; s < network_.topology().stages(); ++s) {
        const std::string stage = "net.stage" + std::to_string(s) + ".";
        sampler_.addRegistryColumn(registry_, stage + "tomm_pkts");
        sampler_.addRegistryColumn(registry_, stage + "wb_entries");
        sampler_.addRegistryColumn(registry_, stage + "combines");
    }
    sampler_.addRegistryColumn(registry_, "pni.outstanding");
    sampler_.addRegistryColumn(registry_, "pe.idle_cycles");
}

std::string
Machine::statsJson() const
{
    return registry_.jsonDump(now());
}

std::string
Machine::statsJson(const obs::DumpOptions &opts) const
{
    return registry_.jsonDump(now(), opts);
}

void
Machine::enableLatency()
{
    if (latency_)
        return;
    obs::LatencyShape shape;
    shape.stages = network_.topology().stages();
    shape.switchesPerStage = network_.topology().switchesPerStage();
    shape.mmAccessTime = cfg_.net.mmAccessTime;
    latency_ = std::make_unique<obs::LatencyObservatory>(shape);
    network_.setLatencyObservatory(latency_.get());
    latency_->registerStats(registry_, "lat");
}

void
Machine::enableProfiling()
{
    if (prof_)
        return;
    prof_ = std::make_unique<prof::Profiler>();
    network_.setProfiler(prof_.get());
}

std::string
Machine::latencyJson() const
{
    if (!latency_)
        return "{}";
    Histogram pe_wait{2, 128};
    for (const auto &pe : pes_)
        pe_wait.merge(pe->waitHist());
    std::ostringstream os;
    const std::string summary = latency_->summaryJson();
    // Splice the merged PE-wait distribution into the summary object.
    os << summary.substr(0, summary.rfind('}')) << ", \"pe_wait\": ";
    obs::writeJsonHistogram(os, pe_wait);
    os << "}";
    return os.str();
}

void
Machine::attachEventTrace(obs::EventTrace *trace)
{
    eventTrace_ = trace;
    network_.setEventTrace(trace);
    const std::uint32_t pe_track = trace ? trace->track("pe") : 0;
    for (auto &pe : pes_)
        pe->setEventTrace(trace, pe_track);
}

Addr
Machine::allocShared(std::size_t words, std::string name)
{
    ULTRA_ASSERT(words > 0);
    ULTRA_ASSERT(nextShared_ + words <= memory_.totalWords(),
                 "shared memory exhausted allocating '", name, "'");
    const Addr base = nextShared_;
    nextShared_ += words;
    if (!name.empty())
        symbols_.emplace_back(std::move(name), base);
    return base;
}

Word
Machine::peek(Addr vaddr) const
{
    return memory_.peek(hash_.toPhysical(vaddr));
}

void
Machine::poke(Addr vaddr, Word value)
{
    memory_.poke(hash_.toPhysical(vaddr), value);
}

pe::PeStats
Machine::aggregatePeStats() const
{
    pe::PeStats total;
    for (PEId pe : launched_) {
        const pe::PeStats &s = pes_[pe]->stats();
        total.instructions += s.instructions;
        total.sharedRefs += s.sharedRefs;
        total.sharedLoads += s.sharedLoads;
        total.privateRefs += s.privateRefs;
        total.idleCycles += s.idleCycles;
        total.busyCycles += s.busyCycles;
    }
    return total;
}

std::string
Machine::statsReport() const
{
    // Every number below reads through the registry, so this report,
    // statsJson() and any sampled series all agree by construction.
    auto v = [this](const char *path) { return registry_.value(path); };
    auto u = [&](const char *path) {
        return static_cast<std::uint64_t>(v(path));
    };

    std::ostringstream os;
    const double cycles = static_cast<double>(now());
    const double pes = v("machine.pes_engaged");
    const std::uint64_t instructions = u("pe.instructions");
    os << "=== machine report @ cycle " << now() << " ("
       << u("machine.pes_engaged") << " PEs engaged) ===\n";
    if (instructions > 0) {
        const double shared = v("pe.shared_refs");
        const double priv = v("pe.private_refs");
        os << "PEs: " << instructions << " instructions, "
           << u("pe.shared_refs") << " shared refs ("
           << u("pe.shared_loads") << " loads), " << u("pe.private_refs")
           << " private refs\n";
        os << "  mem refs/instr "
           << TextTable::fmt((shared + priv) /
                                 static_cast<double>(instructions),
                             3)
           << ", shared/instr "
           << TextTable::fmt(shared / static_cast<double>(instructions),
                             3)
           << ", busy "
           << TextTable::pct(pes > 0 && cycles > 0
                                 ? v("pe.busy_cycles") / (cycles * pes)
                                 : 0.0)
           << ", context waiting "
           << TextTable::pct(pes > 0 && cycles > 0
                                 ? v("pe.idle_cycles") / (cycles * pes)
                                 : 0.0)
           << "\n";
    }
    const std::uint64_t injected = u("net.injected");
    const std::uint64_t combined = u("net.combined");
    os << "network: " << injected << " injected, " << combined
       << " combined";
    if (injected > 0) {
        os << " (" << TextTable::pct(static_cast<double>(combined) /
                                     static_cast<double>(injected))
           << ")";
    }
    os << ", " << u("net.mm_served") << " memory accesses, "
       << u("net.killed") << " killed\n";
    if (combined > 0) {
        os << "  combines by stage:";
        for (unsigned s = 0; s < network_.topology().stages(); ++s) {
            os << " s" << s << " "
               << static_cast<std::uint64_t>(registry_.value(
                      "net.stage" + std::to_string(s) + ".combines"));
        }
        os << "\n";
    }
    const Accumulator &rt = registry_.accumulator("net.round_trip");
    if (rt.count() > 0) {
        const Histogram &rth =
            registry_.histogram("net.round_trip_hist");
        os << "  round trip mean " << TextTable::fmt(rt.mean(), 1)
           << " cycles, p50 " << rth.percentile(0.5) << ", p95 "
           << rth.percentile(0.95) << ", p99 " << rth.percentile(0.99)
           << "\n";
    }
    const Accumulator &access = registry_.accumulator("pni.access_time");
    if (u("pni.completed") > 0) {
        os << "PNI: " << u("pni.completed")
           << " completed, access mean "
           << TextTable::fmt(access.mean(), 1) << " cycles (max "
           << TextTable::fmt(access.max(), 0) << ")\n";
    }
    // Memory-module balance: hot/mean ratio over modules with load.
    if (u("mem.executed") > 0) {
        os << "memory: hottest module carried "
           << TextTable::fmt(v("mem.imbalance"), 2)
           << "x the mean load\n";
    }
    return os.str();
}

} // namespace ultra::core
