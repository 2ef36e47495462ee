/**
 * @file
 * Grammar of the live inspection protocol (ultra::inspect).
 *
 * The protocol is line-oriented JSON: every request is one JSON object
 * on one line with a "cmd" key, every reply is one JSON object on one
 * line with an "ok" key, and the server may interleave asynchronous
 * event objects ({"event": ...}) for watchpoint hits, step completion
 * and run termination.  See DESIGN.md "Live inspection" for the full
 * grammar and README "Attach to a running sim" for a walkthrough.
 *
 * Requests:
 *
 *   {"cmd":"ping"}                         liveness + current cycle
 *   {"cmd":"status"}                       cycle, paused, in-flight, ...
 *   {"cmd":"pause"}                        halt within 64 cycles
 *   {"cmd":"resume"}                       continue a paused run
 *   {"cmd":"step","n":100}                 advance n cycles, pause again
 *   {"cmd":"step","to":5000}               advance to cycle >= to
 *   {"cmd":"switch","copy":0,"stage":2,"index":3}   queue/WB dump
 *   {"cmd":"mni","copy":0,"module":13}     MNI pending-queue dump
 *   {"cmd":"mem","vaddr":64}               read one shared word
 *   {"cmd":"mem","module":3,"offset":0}    ... by module/offset
 *   {"cmd":"poke","vaddr":64,"value":7}    write one word (steering!)
 *   {"cmd":"stats","prefix":"net."}        live registry snapshot
 *                                          ("lat." for the observatory)
 *   {"cmd":"prof"}                         wall-clock profiler snapshot
 *   {"cmd":"heatmap"}                      congestion heatmap CSV
 *   {"cmd":"watch", ...spec...}            arm a watchpoint (below)
 *   {"cmd":"unwatch","id":1}               disarm one watchpoint
 *   {"cmd":"watchpoints"}                  list armed watchpoints
 *   {"cmd":"detach"}                       resume, clear watchpoints
 *
 * Integer fields take whole numbers that fit them: copy, stage, index
 * and module at most 2^32 - 1, cycles, addresses, offsets and ids at
 * most 2^53, and a poked value within +-2^53.  Anything else gets an
 * error reply naming the field, never a narrowed value.
 *
 * Watchpoint specs (all halt the simulation at the cycle boundary
 * where the predicate first holds; each fires once, then disarms):
 *
 *   {"cmd":"watch","cycle":5000}                     cycle >= 5000
 *   {"cmd":"watch","stat":"lat.violations","op":">","value":0}
 *   {"cmd":"watch","stat":"net.stage2.tomm_pkts","op":">=","value":10}
 *   {"cmd":"watch","drift":0.15}                     |model drift| > e
 *
 * A stat watch takes any registry path ({"cmd":"stats"} lists them),
 * so queue and wait-buffer gauges are watched by name:
 * net.stage<s>.tomm_pkts, net.stage<s>.tope_pkts, net.stage<s>.wb_entries.
 *
 * Parsing lives here so the Inspector, the tests and any future
 * transport share one grammar; no socket or simulator types appear.
 */

#ifndef ULTRA_INSPECT_PROTOCOL_H
#define ULTRA_INSPECT_PROTOCOL_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace ultra::inspect
{

/** Comparison operator of a stat watchpoint predicate. */
enum class CmpOp : std::uint8_t { GT, GE, LT, LE, EQ, NE };

/** Parse ">", ">=", "<", "<=", "==", "!=" (false on anything else). */
bool parseCmpOp(const std::string &text, CmpOp &out);
const char *cmpOpName(CmpOp op);

/** Evaluate @p lhs <op> @p rhs. */
bool evalCmp(double lhs, CmpOp op, double rhs);

/** One armed halt-the-sim predicate. */
struct WatchSpec
{
    enum class Kind : std::uint8_t {
        Cycle, //!< now >= cycle
        Stat,  //!< registry value <op> value
        Drift, //!< |live model drift| > value
    };

    Kind kind = Kind::Cycle;
    Cycle cycle = 0;  //!< Kind::Cycle threshold
    std::string stat; //!< Kind::Stat registry path
    CmpOp op = CmpOp::GT;
    double value = 0.0;

    /** One-line JSON rendering (for watchpoint listings and events). */
    std::string describeJson() const;
};

/** A parsed request. */
struct Command
{
    enum class Kind : std::uint8_t {
        Ping,
        Status,
        Pause,
        Resume,
        Step,
        Switch,
        Mni,
        Mem,
        Poke,
        Stats,
        Prof,
        Heatmap,
        Watch,
        Unwatch,
        Watchpoints,
        Detach,
    };

    Kind kind = Kind::Ping;

    // step
    Cycle stepCount = 1;
    Cycle stepTo = kNeverCycle; //!< set iff "to" was given

    // switch / mni
    unsigned copy = 0;
    unsigned stage = 0;
    std::uint32_t index = 0;
    MMId module = 0;

    // mem / poke
    bool hasVaddr = false;
    Addr vaddr = 0;
    bool hasModule = false;
    std::uint64_t offset = 0;
    Word value = 0;

    // stats
    std::string prefix;

    // watch / unwatch
    WatchSpec watch;
    std::uint64_t watchId = 0;
};

/**
 * Parse one request line.  On failure returns false and sets @p err to
 * a human-readable reason (already suitable for an error reply).
 */
bool parseCommand(const std::string &line, Command &out,
                  std::string &err);

/** {"ok":false,"error":<escaped message>} */
std::string errorReply(const std::string &message);

} // namespace ultra::inspect

#endif // ULTRA_INSPECT_PROTOCOL_H
