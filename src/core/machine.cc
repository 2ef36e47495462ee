#include "machine.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/table.h"
#include "obs/event_trace.h"

namespace ultra::core
{

MachineConfig
MachineConfig::paperTable1()
{
    return small(4096, 4);
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
    return mc;
}

} // namespace

Machine::Machine(const MachineConfig &cfg)
    : Observed(network_, "pe.idle_cycles"), cfg_(cfg),
      memory_(memoryConfigFor(cfg)),
      hash_(log2Exact(memory_.totalWords())),
      network_(cfg.net, memory_), pni_(cfg.pni, network_, hash_)
{
    ULTRA_ASSERT(isPowerOfTwo(memory_.totalWords()),
                 "total memory must be a power of two for the hash");
    pes_.reserve(cfg_.net.numPorts);
    for (PEId pe = 0; pe < cfg_.net.numPorts; ++pe) {
        pes_.push_back(std::make_unique<pe::Pe>(pe, pni_, network_));
    }
    programs_.resize(cfg_.net.numPorts);
    slotOf_.assign(cfg_.net.numPorts, kNoSlot);
    pni_.setCompleteCallback(
        [this](PEId pe, std::uint64_t ticket, Word value) {
            pes_[pe]->onComplete(ticket, value);
            if (slotOf_[pe] != kNoSlot)
                refreshSlot(slotOf_[pe]);
        });
    registerMachineStats();
}

void
Machine::registerMachineStats()
{
    obs::Registry &reg = registry();
    network_.registerStats(reg, "net");
    pni_.registerStats(reg, "pni");
    memory_.registerStats(reg, "mem");

    reg.addScalar("machine.pes_engaged",
                  [this] {
                      return static_cast<double>(launched_.size());
                  });
    auto peTotal = [this](std::uint64_t pe::PeStats::*field) {
        return [this, field] {
            std::uint64_t total = 0;
            for (PEId pe : launched_)
                total += pes_[pe]->stats().*field;
            return static_cast<double>(total);
        };
    };
    reg.addScalar("pe.instructions",
                  peTotal(&pe::PeStats::instructions));
    reg.addScalar("pe.shared_refs",
                  peTotal(&pe::PeStats::sharedRefs));
    reg.addScalar("pe.shared_loads",
                  peTotal(&pe::PeStats::sharedLoads));
    reg.addScalar("pe.private_refs",
                  peTotal(&pe::PeStats::privateRefs));
    reg.addScalar("pe.busy_cycles",
                  peTotal(&pe::PeStats::busyCycles));
    reg.addScalar("pe.idle_cycles",
                  peTotal(&pe::PeStats::idleCycles));
}

void
Machine::launch(PEId pe, ProgramFn program)
{
    ULTRA_ASSERT(pe < pes_.size(), "no such PE: ", pe);
    ULTRA_ASSERT(!pes_[pe]->hasTask() || pes_[pe]->finished(),
                 "PE ", pe, " is still running a program");
    if (programs_[pe].empty())
        launched_.push_back(pe); // its first launch
    // Pin the callable first: a coroutine lambda's frame references its
    // closure object, which must outlive the task.
    pes_[pe]->setTask(pe::Task{}); // drop the old frames first
    programs_[pe].clear();
    programs_[pe].push_back(
        std::make_unique<ProgramFn>(std::move(program)));
    pes_[pe]->setTask((*programs_[pe].front())(*pes_[pe]));
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
}

void
Machine::launchAll(std::uint32_t count, const ProgramFn &program)
{
    ULTRA_ASSERT(count <= numPes());
    for (PEId pe = 0; pe < count; ++pe)
        launch(pe, program);
}

void
Machine::refreshSlot(std::uint32_t slot)
{
    const pe::Pe &pe = *pes_[stepOrder_[slot]];
    wake_[slot] = pe.wakeAt();
    // A finished PE has no ready context, so only a PE that cannot
    // wake is worth the finished() scan.
    if (wake_[slot] == kNeverCycle && !finished_[slot] && pe.finished()) {
        finished_[slot] = true;
        --unfinished_;
    }
}

bool
Machine::run(Cycle max_cycles)
{
    // PEs step in ascending id order.  Walk only the launched ones:
    // programs often engage a handful of PEs on a large machine.
    for (PEId pe : stepOrder_)
        slotOf_[pe] = kNoSlot;
    stepOrder_ = launched_;
    std::sort(stepOrder_.begin(), stepOrder_.end());
    const auto slots = static_cast<std::uint32_t>(stepOrder_.size());
    wake_.assign(slots, kNeverCycle);
    finished_.assign(slots, false);
    unfinished_ = slots;
    for (std::uint32_t i = 0; i < slots; ++i) {
        slotOf_[stepOrder_[i]] = i;
        refreshSlot(i);
    }
    beginRun();
    const Cycle deadline = now() + max_cycles;
    bool finished_all = false;
    while (now() < deadline) {
        // Cycle-boundary yield point: the previous cycle's network tick
        // is done and no PE has stepped yet, so a hook (the
        // live-inspection pause fence) observes only consistent state
        // and may block here indefinitely.
        cycleStart(now());
        // The canonical cycle order (DESIGN.md "The cycle loop"): PEs
        // step, PNIs issue in PE-id order, the network and memory
        // advance, observers sample.  A PE's wake cycle changes only
        // when it steps or a request of its completes, so the slots
        // not yet due are skipped without touching the PE (step()
        // checks that a due one is runnable).
        const Cycle cycle = now();
        for (std::uint32_t i = 0; i < slots; ++i) {
            if (wake_[i] > cycle)
                continue;
            pes_[stepOrder_[i]]->step(cycle);
            refreshSlot(i);
        }
        lap(prof::Phase::PeStep);
        finished_all = unfinished_ == 0;
        if (finished_all)
            break;
        pni_.tick();
        lap(prof::Phase::Pni);
        tickNetwork();
    }
    for (PEId pe : launched_)
        pes_[pe]->flushWaits(now());
    endRun(now());
    return finished_all;
}

void
Machine::enableLatency()
{
    if (latencyEnabled())
        return;
    Observed::enableLatency();
    for (auto &pe : pes_)
        pe->setWaitHist(&peWaitHist_);
    registry().addHistogram("lat.pe_wait_hist", &peWaitHist_);
}

void
Machine::attachEventTrace(obs::EventTrace *trace)
{
    Observed::attachEventTrace(trace);
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
    const obs::Registry &reg = registry();
    auto v = [&reg](const char *path) { return reg.value(path); };
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
               << static_cast<std::uint64_t>(reg.value(
                      "net.stage" + std::to_string(s) + ".combines"));
        }
        os << "\n";
    }
    const Accumulator &rt = reg.accumulator("net.round_trip");
    if (rt.count() > 0) {
        const Histogram &rth = reg.histogram("net.round_trip_hist");
        os << "  round trip mean " << TextTable::fmt(rt.mean(), 1)
           << " cycles, p50 " << rth.percentile(0.5) << ", p95 "
           << rth.percentile(0.95) << ", p99 " << rth.percentile(0.99)
           << "\n";
    }
    const Accumulator &access = reg.accumulator("pni.access_time");
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
