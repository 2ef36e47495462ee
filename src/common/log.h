/**
 * @file
 * Error reporting in the gem5 tradition.
 *
 * panic() -- an internal simulator invariant was violated (a bug here).
 * warn()  -- something is off but simulation can continue.
 *
 * Every message flows through one process-wide sink (stderr by
 * default); setLogSink() redirects it, which is how tests capture log
 * output.
 */

#ifndef ULTRA_COMMON_LOG_H
#define ULTRA_COMMON_LOG_H

#include <functional>
#include <sstream>
#include <string>

namespace ultra
{

/** Severity of a log message, in increasing order. */
enum class LogLevel { Warn, Panic };

/** Receives every emitted message. */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/** Route all log output to @p sink; nullptr restores stderr. */
void setLogSink(LogSink sink);

namespace detail
{

/** Emit @p msg at @p level. */
void log(LogLevel level, const std::string &msg);

/** Emit @p msg at Panic level and abort. */
[[noreturn]] void logAndAbort(const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Report a simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::logAndAbort(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::log(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}

/** panic() unless @p cond holds. */
#define ULTRA_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::ultra::panic("assertion '", #cond, "' failed at ", __FILE__,  \
                           ":", __LINE__, " ", ##__VA_ARGS__);              \
        }                                                                   \
    } while (0)

} // namespace ultra

#endif // ULTRA_COMMON_LOG_H
