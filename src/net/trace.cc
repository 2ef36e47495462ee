#include "trace.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "common/log.h"

namespace ultra::net
{

double
Trace::intensity(std::uint32_t active_pes) const
{
    if (entries.empty() || active_pes == 0)
        return 0.0;
    return static_cast<double>(entries.size()) /
           static_cast<double>(duration()) / active_pes;
}

TraceRecorder::TraceRecorder(PniArray &pni) : pni_(pni)
{
    pni_.setRequestProbe(
        [this](PEId pe, Op op, Addr vaddr, Word data) {
            trace_.entries.push_back(
                {pni_.network().now(), pe, op, vaddr, data});
        });
}

Trace
TraceRecorder::take()
{
    pni_.setRequestProbe(nullptr);
    return std::move(trace_);
}

ReplayResult
replayTrace(const Trace &trace, PniArray &pni, Network &network)
{
    std::size_t next = 0;
    const Cycle offset = network.now();
    while (next < trace.entries.size()) {
        const Cycle local = network.now() - offset;
        while (next < trace.entries.size() &&
               trace.entries[next].at <= local) {
            const TraceEntry &entry = trace.entries[next];
            pni.request(entry.pe, entry.op, entry.vaddr, entry.data);
            ++next;
        }
        pni.tick();
        network.tick();
    }
    // Drain everything still queued or in flight.
    Cycle guard = 0;
    while (network.inFlight() > 0 && guard++ < 10'000'000) {
        pni.tick();
        network.tick();
    }
    bool all_idle = false;
    guard = 0;
    while (!all_idle && guard++ < 10'000'000) {
        all_idle = true;
        for (PEId pe = 0; pe < network.config().numPorts && all_idle;
             ++pe) {
            all_idle = pni.idle(pe);
        }
        if (!all_idle) {
            pni.tick();
            network.tick();
        }
    }
    ULTRA_ASSERT(all_idle, "trace replay did not drain");

    ReplayResult result;
    result.requests = pni.stats().completed;
    result.meanAccessTime = pni.stats().accessTime.mean();
    result.meanOneWay = network.stats().oneWayTransit.mean();
    result.finishedAt = network.now() - offset;
    return result;
}

bool
saveTrace(const Trace &trace, const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    for (const TraceEntry &entry : trace.entries) {
        std::fprintf(file, "%" PRIu64 ",%u,%u,%" PRIu64 ",%" PRId64
                           "\n",
                     static_cast<std::uint64_t>(entry.at), entry.pe,
                     static_cast<unsigned>(entry.op),
                     static_cast<std::uint64_t>(entry.vaddr),
                     static_cast<std::int64_t>(entry.data));
    }
    const bool written = std::ferror(file) == 0;
    return std::fclose(file) == 0 && written;
}

namespace
{

/** Parse all of @p text as one integer field. */
template <typename T>
bool
parseField(std::string_view text, T &out)
{
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
}

/** Parse one "cycle,pe,op,vaddr,data" line. */
bool
parseLine(std::string_view line, TraceEntry &entry)
{
    std::string_view fields[5];
    std::size_t count = 0;
    for (std::size_t start = 0; count < 5; ++count) {
        const std::size_t comma = line.find(',', start);
        fields[count] = line.substr(start, comma - start);
        start = comma + 1;
        if (comma == std::string_view::npos)
            break;
    }
    unsigned op = 0;
    if (count != 4 || !parseField(fields[0], entry.at) ||
        !parseField(fields[1], entry.pe) || !parseField(fields[2], op) ||
        !parseField(fields[3], entry.vaddr) ||
        !parseField(fields[4], entry.data) ||
        op > static_cast<unsigned>(Op::FetchMin)) {
        return false;
    }
    entry.op = static_cast<Op>(op);
    return true;
}

} // namespace

Trace
loadTrace(const std::string &path, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open '" + path + "' for reading";
        return {};
    }
    Trace trace;
    std::string text;
    for (std::size_t line = 1; std::getline(in, text); ++line) {
        TraceEntry entry;
        const char *what = nullptr;
        if (!parseLine(text, entry))
            what = "expected cycle,pe,op,vaddr,data with a known op code";
        else if (!trace.entries.empty() &&
                 entry.at < trace.entries.back().at)
            what = "cycle goes backwards";
        if (what != nullptr) {
            err = path + ":" + std::to_string(line) + ": " + what;
            return {};
        }
        trace.entries.push_back(entry);
    }
    return trace;
}

} // namespace ultra::net
