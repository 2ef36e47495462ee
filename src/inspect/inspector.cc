#include "inspect/inspector.h"

#include <cmath>
#include <sstream>

#include "mem/address_hash.h"
#include "mem/memory_system.h"
#include "net/network.h"
#include "obs/json.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "prof/profiler.h"

namespace ultra::inspect
{

Inspector::Inspector(InspectServer &server, Targets targets,
                     bool start_paused)
    : server_(server), targets_(targets),
      startNs_(prof::Profiler::nowNs()), paused_(start_paused)
{
}

bool
Inspector::fires(const WatchSpec &spec, Cycle now, double &observed)
{
    switch (spec.kind) {
    case WatchSpec::Kind::Cycle:
        observed = static_cast<double>(now);
        return now >= spec.cycle;
    case WatchSpec::Kind::Stat:
        observed = targets_.registry->value(spec.stat);
        return evalCmp(observed, spec.op, spec.value);
    case WatchSpec::Kind::Drift:
        observed = driftFn_();
        return std::fabs(observed) > spec.value;
    }
    observed = 0.0;
    return false;
}

void
Inspector::atCycleBoundary(Cycle now)
{
    const bool check_socket = now % kSocketCheckPeriod == 0;
    if (check_socket && server_.takeDisconnects() > 0)
        clientGone();

    for (std::size_t i = 0; i < armed_.size();) {
        double observed = 0.0;
        if (fires(armed_[i].spec, now, observed)) {
            std::ostringstream os;
            os << "{\"event\": \"watchpoint\", \"id\": " << armed_[i].id
               << ", \"cycle\": " << now << ", \"observed\": ";
            obs::writeJsonNumber(os, observed);
            os << ", \"spec\": " << armed_[i].spec.describeJson() << "}";
            server_.send(os.str());
            // One-shot: a persistent level predicate (cycle >= N, a
            // queue gauge >= k while congested) would re-fire every
            // cycle.
            armed_.erase(armed_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            paused_ = true;
        } else {
            ++i;
        }
    }

    if (stepTarget_ != kNeverCycle && now >= stepTarget_) {
        stepTarget_ = kNeverCycle;
        paused_ = true;
        server_.send("{\"event\": \"paused\", \"cycle\": " +
                     std::to_string(now) + "}");
    }

    std::string line;
    while (check_socket && server_.poll(line))
        handleLine(line, now);
    while (paused_) {
        if (server_.wait(line))
            handleLine(line, now);
        else
            clientGone(); // resumes: a dead client must not wedge us
    }
}

void
Inspector::finishRun(Cycle now, bool completed)
{
    finished_ = true;
    paused_ = false;
    stepTarget_ = kNeverCycle;
    if (server_.takeDisconnects() > 0)
        clientGone();
    std::string line;
    while (server_.poll(line))
        handleLine(line, now);
    if (!server_.connected())
        return;
    server_.send("{\"event\": \"finished\", \"cycle\": " +
                 std::to_string(now) + ", \"completed\": " +
                 (completed ? "true" : "false") + "}");
    while (!detached_) {
        if (server_.wait(line))
            handleLine(line, now);
        else
            break; // client closed: the run is over anyway
    }
}

void
Inspector::clientGone()
{
    armed_.clear();
    paused_ = false;
    stepTarget_ = kNeverCycle;
}

void
Inspector::handleLine(const std::string &line, Cycle now)
{
    Command cmd;
    std::string err;
    if (!parseCommand(line, cmd, err)) {
        server_.send(errorReply(err));
        return;
    }
    server_.send(execute(cmd, now));
}

std::string
Inspector::statusJson(Cycle now) const
{
    // Wall section: host-side progress (elapsed seconds since attach
    // setup, simulated cycles per host second).  Host-dependent by
    // nature, so the values vary run to run -- only the shape is
    // pinned by inspect_test.
    const double elapsed =
        static_cast<double>(prof::Profiler::nowNs() - startNs_) * 1e-9;
    const double cps =
        elapsed > 0.0 ? static_cast<double>(now) / elapsed : 0.0;
    std::ostringstream os;
    os << "{\"ok\": true, \"cycle\": " << now << ", \"paused\": "
       << (paused_ ? "true" : "false") << ", \"finished\": "
       << (finished_ ? "true" : "false") << ", \"in_flight\": "
       << targets_.network->inFlight() << ", \"watchpoints\": "
       << armed_.size() << ", \"wall\": {\"cycles_per_second\": ";
    obs::writeJsonNumber(os, cps);
    os << ", \"elapsed_seconds\": ";
    obs::writeJsonNumber(os, elapsed);
    os << "}}";
    return os.str();
}

std::string
Inspector::execute(const Command &cmd, Cycle now)
{
    switch (cmd.kind) {
    case Command::Kind::Ping:
        return "{\"ok\": true, \"cycle\": " + std::to_string(now) + "}";
    case Command::Kind::Status:
        return statusJson(now);
    case Command::Kind::Pause:
        if (finished_)
            return errorReply("run already finished");
        paused_ = true;
        return statusJson(now);
    case Command::Kind::Resume:
        if (finished_)
            return errorReply("run already finished");
        paused_ = false;
        stepTarget_ = kNeverCycle;
        return statusJson(now);
    case Command::Kind::Step: {
        if (finished_)
            return errorReply("run already finished");
        const Cycle target = cmd.stepTo != kNeverCycle
                                 ? cmd.stepTo
                                 : now + cmd.stepCount;
        if (target <= now)
            return errorReply("step target " + std::to_string(target) +
                              " is not past cycle " +
                              std::to_string(now));
        stepTarget_ = target;
        paused_ = false;
        return "{\"ok\": true, \"cycle\": " + std::to_string(now) +
               ", \"until\": " + std::to_string(target) + "}";
    }
    case Command::Kind::Switch:
        return executeSwitch(cmd);
    case Command::Kind::Mni:
        return executeMni(cmd);
    case Command::Kind::Mem:
    case Command::Kind::Poke:
        return executeMem(cmd);
    case Command::Kind::Stats:
        return executeStats(cmd, now);
    case Command::Kind::Prof:
        if (targets_.prof == nullptr)
            return errorReply("no profiler attached "
                              "(run with --prof-json)");
        return "{\"ok\": true, \"prof\": " +
               targets_.prof->reportJson() + "}";
    case Command::Kind::Heatmap: {
        if (targets_.latency == nullptr)
            return errorReply("no latency observatory attached "
                              "(run with --latency)");
        std::ostringstream os;
        os << "{\"ok\": true, \"csv\": ";
        obs::writeJsonString(os, targets_.latency->heatmapCsv());
        os << "}";
        return os.str();
    }
    case Command::Kind::Watch:
        return executeWatch(cmd);
    case Command::Kind::Unwatch:
        for (std::size_t i = 0; i < armed_.size(); ++i) {
            if (armed_[i].id == cmd.watchId) {
                armed_.erase(armed_.begin() +
                             static_cast<std::ptrdiff_t>(i));
                return "{\"ok\": true, \"id\": " +
                       std::to_string(cmd.watchId) + "}";
            }
        }
        return errorReply("no watchpoint with id " +
                          std::to_string(cmd.watchId));
    case Command::Kind::Watchpoints: {
        std::ostringstream os;
        os << "{\"ok\": true, \"watchpoints\": [";
        for (std::size_t i = 0; i < armed_.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << "{\"id\": " << armed_[i].id << ", \"spec\": "
               << armed_[i].spec.describeJson() << "}";
        }
        os << "]}";
        return os.str();
    }
    case Command::Kind::Detach:
        detached_ = true;
        clientGone();
        return "{\"ok\": true, \"detached\": true}";
    }
    return errorReply("unhandled command");
}

std::string
Inspector::executeSwitch(const Command &cmd)
{
    const std::string json =
        targets_.network->switchJson(cmd.copy, cmd.stage, cmd.index);
    if (json.empty())
        return errorReply("no switch at copy " +
                          std::to_string(cmd.copy) + " stage " +
                          std::to_string(cmd.stage) + " index " +
                          std::to_string(cmd.index));
    return "{\"ok\": true, \"switch\": " + json + "}";
}

std::string
Inspector::executeMni(const Command &cmd)
{
    const std::string json =
        targets_.network->mniJson(cmd.copy, cmd.module);
    if (json.empty())
        return errorReply("no MNI at copy " + std::to_string(cmd.copy) +
                          " module " + std::to_string(cmd.module));
    return "{\"ok\": true, \"mni\": " + json + "}";
}

std::string
Inspector::executeMem(const Command &cmd)
{
    mem::MemorySystem *memory = targets_.memory;
    if (memory == nullptr)
        return errorReply("no memory system attached");
    Addr paddr = 0;
    if (cmd.hasVaddr) {
        paddr = targets_.hash != nullptr
                    ? targets_.hash->toPhysical(cmd.vaddr)
                    : cmd.vaddr;
    } else {
        const std::uint32_t modules = memory->config().numModules;
        if (cmd.module >= modules)
            return errorReply("module " + std::to_string(cmd.module) +
                              " out of range (have " +
                              std::to_string(modules) + ")");
        paddr = static_cast<Addr>(cmd.offset) * modules + cmd.module;
    }
    if (paddr >= memory->totalWords())
        return errorReply("address " + std::to_string(paddr) +
                          " beyond memory (" +
                          std::to_string(memory->totalWords()) +
                          " words)");
    std::ostringstream os;
    os << "{\"ok\": true, \"paddr\": " << paddr << ", \"module\": "
       << memory->moduleOf(paddr) << ", \"offset\": "
       << memory->offsetOf(paddr) << ", \"value\": "
       << memory->peek(paddr);
    if (cmd.kind == Command::Kind::Poke) {
        // Steering: mutates simulation state, so the attached run is
        // no longer byte-identical to an unattached one (by design).
        memory->poke(paddr, cmd.value);
        pokeUsed_ = true;
        os << ", \"new_value\": " << cmd.value;
    }
    os << "}";
    return os.str();
}

std::string
Inspector::executeStats(const Command &cmd, Cycle now)
{
    const obs::Registry *registry = targets_.registry;
    if (registry == nullptr)
        return errorReply("no stats registry attached");
    std::ostringstream os;
    os << "{\"ok\": true, \"cycle\": " << now << ", \"stats\": {";
    bool first = true;
    for (const std::string &path : registry->paths()) {
        if (path.compare(0, cmd.prefix.size(), cmd.prefix) != 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        obs::writeJsonString(os, path);
        os << ": ";
        obs::writeJsonNumber(os, registry->value(path));
    }
    os << "}}";
    return os.str();
}

std::string
Inspector::executeWatch(const Command &cmd)
{
    const WatchSpec &spec = cmd.watch;
    switch (spec.kind) {
    case WatchSpec::Kind::Stat:
        if (targets_.registry == nullptr)
            return errorReply("no stats registry attached");
        if (!targets_.registry->has(spec.stat))
            return errorReply("unknown stat '" + spec.stat + "'");
        break;
    case WatchSpec::Kind::Drift:
        if (!driftFn_)
            return errorReply("no live analytic model for this run");
        break;
    case WatchSpec::Kind::Cycle:
        break;
    }
    const std::uint64_t id = nextWatchId_++;
    armed_.push_back({id, spec});
    return "{\"ok\": true, \"id\": " + std::to_string(id) +
           ", \"spec\": " + spec.describeJson() + "}";
}

} // namespace ultra::inspect
