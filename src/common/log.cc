#include "log.h"

#include <cstdio>
#include <cstdlib>

namespace ultra
{

namespace
{

LogSink &
sinkRef()
{
    static LogSink sink;
    return sink;
}

} // namespace

void
setLogSink(LogSink sink)
{
    sinkRef() = std::move(sink);
}

namespace detail
{

void
log(LogLevel level, const std::string &msg)
{
    const LogSink &sink = sinkRef();
    if (sink) {
        sink(level, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n",
                 level == LogLevel::Panic ? "panic" : "warn", msg.c_str());
}

void
logAndAbort(const std::string &msg)
{
    log(LogLevel::Panic, msg);
    std::abort();
}

} // namespace detail
} // namespace ultra
