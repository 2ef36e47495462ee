#include "inspect/protocol.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/cli.h"
#include "common/json_lite.h"
#include "obs/json.h"

namespace ultra::inspect
{

namespace
{

/** Largest 32-bit field value, and the largest integer a JSON number
 *  carries exactly (the cap of a 64-bit field). */
constexpr std::uint64_t kMaxU32 = UINT32_MAX;
constexpr std::uint64_t kMaxExact = std::uint64_t{1} << 53;

/** A request field that is present but unusable; parseCommand turns it
 *  into an error reply prefixed with the command. */
struct BadField : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

/** The integer field @p key of @p obj, or nullopt when it is absent.  A
 *  value that is not a whole number in [@p lo, @p hi] -- so its field
 *  cannot hold it -- throws BadField naming @p key. */
std::optional<std::uint64_t>
intField(const jsonlite::JsonValue &obj, const char *key,
         std::uint64_t lo, std::uint64_t hi)
{
    if (!obj.has(key))
        return std::nullopt;
    const jsonlite::JsonValue &v = obj[key];
    if (!v.isNumber() || !(v.number >= static_cast<double>(lo) &&
                           v.number <= static_cast<double>(hi)) ||
        std::floor(v.number) != v.number) {
        throw BadField(std::string("'") + key + "' must be " +
                       cli::intRange(lo, hi));
    }
    return static_cast<std::uint64_t>(v.number);
}

/** As intField, but an absent field throws too. */
std::uint64_t
requiredInt(const jsonlite::JsonValue &obj, const char *key,
            std::uint64_t lo, std::uint64_t hi)
{
    const std::optional<std::uint64_t> v = intField(obj, key, lo, hi);
    if (!v)
        throw BadField(std::string("'") + key + "' required");
    return *v;
}

} // namespace

bool
parseCmpOp(const std::string &text, CmpOp &out)
{
    if (text == ">")
        out = CmpOp::GT;
    else if (text == ">=")
        out = CmpOp::GE;
    else if (text == "<")
        out = CmpOp::LT;
    else if (text == "<=")
        out = CmpOp::LE;
    else if (text == "==")
        out = CmpOp::EQ;
    else if (text == "!=")
        out = CmpOp::NE;
    else
        return false;
    return true;
}

const char *
cmpOpName(CmpOp op)
{
    switch (op) {
    case CmpOp::GT: return ">";
    case CmpOp::GE: return ">=";
    case CmpOp::LT: return "<";
    case CmpOp::LE: return "<=";
    case CmpOp::EQ: return "==";
    case CmpOp::NE: return "!=";
    }
    return "?";
}

bool
evalCmp(double lhs, CmpOp op, double rhs)
{
    switch (op) {
    case CmpOp::GT: return lhs > rhs;
    case CmpOp::GE: return lhs >= rhs;
    case CmpOp::LT: return lhs < rhs;
    case CmpOp::LE: return lhs <= rhs;
    case CmpOp::EQ: return lhs == rhs;
    case CmpOp::NE: return lhs != rhs;
    }
    return false;
}

std::string
WatchSpec::describeJson() const
{
    std::ostringstream os;
    switch (kind) {
    case Kind::Cycle:
        os << "{\"cycle\": " << cycle << "}";
        break;
    case Kind::Stat:
        os << "{\"stat\": ";
        obs::writeJsonString(os, stat);
        os << ", \"op\": \"" << cmpOpName(op) << "\", \"value\": ";
        obs::writeJsonNumber(os, value);
        os << "}";
        break;
    case Kind::Drift:
        os << "{\"drift\": ";
        obs::writeJsonNumber(os, value);
        os << "}";
        break;
    }
    return os.str();
}

namespace
{

void
parseWatch(const jsonlite::JsonValue &obj, WatchSpec &out)
{
    if (const auto cycle = intField(obj, "cycle", 0, kMaxExact)) {
        out.kind = WatchSpec::Kind::Cycle;
        out.cycle = *cycle;
        return;
    }
    if (obj.has("drift")) {
        if (!obj["drift"].isNumber() || obj["drift"].number <= 0)
            throw BadField("'drift' must be a positive tolerance");
        out.kind = WatchSpec::Kind::Drift;
        out.value = obj["drift"].number;
        return;
    }
    if (obj.has("queue")) {
        throw BadField("'queue' is not a watch; watch its stat, e.g. "
                       "\"stat\": \"net.stage2.tomm_pkts\" (or "
                       "tope_pkts, wb_entries)");
    }
    if (!obj.has("stat"))
        throw BadField("needs one of 'cycle', 'drift', 'stat'");
    if (!obj.has("op") || !obj["op"].isString() ||
        !parseCmpOp(obj["op"].string, out.op)) {
        throw BadField("'op' must be one of > >= < <= == !=");
    }
    if (!obj.has("value") || !obj["value"].isNumber())
        throw BadField("numeric 'value' required");
    out.value = obj["value"].number;
    if (!obj["stat"].isString() || obj["stat"].string.empty())
        throw BadField("'stat' must be a registry path");
    out.kind = WatchSpec::Kind::Stat;
    out.stat = obj["stat"].string;
}

/** Fill @p out from the object @p doc of command @p cmd; a bad field
 *  throws BadField, an unknown command returns false. */
bool
parseFields(const jsonlite::JsonValue &doc, const std::string &cmd,
            Command &out)
{
    if (cmd == "ping") {
        out.kind = Command::Kind::Ping;
    } else if (cmd == "status") {
        out.kind = Command::Kind::Status;
    } else if (cmd == "pause") {
        out.kind = Command::Kind::Pause;
    } else if (cmd == "resume") {
        out.kind = Command::Kind::Resume;
    } else if (cmd == "step") {
        out.kind = Command::Kind::Step;
        out.stepTo = intField(doc, "to", 0, kMaxExact).value_or(kNeverCycle);
        out.stepCount = out.stepTo != kNeverCycle
                            ? 1
                            : intField(doc, "n", 1, kMaxExact).value_or(1);
    } else if (cmd == "switch") {
        out.kind = Command::Kind::Switch;
        out.copy = static_cast<unsigned>(
            intField(doc, "copy", 0, kMaxU32).value_or(0));
        out.stage =
            static_cast<unsigned>(requiredInt(doc, "stage", 0, kMaxU32));
        out.index = static_cast<std::uint32_t>(
            requiredInt(doc, "index", 0, kMaxU32));
    } else if (cmd == "mni") {
        out.kind = Command::Kind::Mni;
        out.copy = static_cast<unsigned>(
            intField(doc, "copy", 0, kMaxU32).value_or(0));
        out.module =
            static_cast<MMId>(requiredInt(doc, "module", 0, kMaxU32));
    } else if (cmd == "mem" || cmd == "poke") {
        out.kind = cmd == "mem" ? Command::Kind::Mem
                                : Command::Kind::Poke;
        if (const auto vaddr = intField(doc, "vaddr", 0, kMaxExact)) {
            out.hasVaddr = true;
            out.vaddr = *vaddr;
        } else if (const auto module =
                       intField(doc, "module", 0, kMaxU32)) {
            out.hasModule = true;
            out.module = static_cast<MMId>(*module);
            const auto offset = intField(doc, "offset", 0, kMaxExact);
            if (!offset)
                throw BadField("'offset' required with 'module'");
            out.offset = *offset;
        } else {
            throw BadField("'vaddr' or 'module'+'offset' required");
        }
        if (out.kind == Command::Kind::Poke) {
            if (!doc.has("value") || !doc["value"].isNumber())
                throw BadField("numeric 'value' required");
            // A word outside +-2^53 has no exact JSON number.
            const double v = doc["value"].number;
            if (!(std::fabs(v) <= static_cast<double>(kMaxExact)) ||
                std::floor(v) != v) {
                throw BadField("'value' must be an integer in [-" +
                               std::to_string(kMaxExact) + ", " +
                               std::to_string(kMaxExact) + "]");
            }
            out.value = static_cast<Word>(v);
        }
    } else if (cmd == "stats") {
        out.kind = Command::Kind::Stats;
        if (doc.has("prefix") && doc["prefix"].isString())
            out.prefix = doc["prefix"].string;
    } else if (cmd == "prof") {
        out.kind = Command::Kind::Prof;
    } else if (cmd == "heatmap") {
        out.kind = Command::Kind::Heatmap;
    } else if (cmd == "watch") {
        out.kind = Command::Kind::Watch;
        parseWatch(doc, out.watch);
    } else if (cmd == "unwatch") {
        out.kind = Command::Kind::Unwatch;
        out.watchId = requiredInt(doc, "id", 0, kMaxExact);
    } else if (cmd == "watchpoints") {
        out.kind = Command::Kind::Watchpoints;
    } else if (cmd == "detach" || cmd == "quit") {
        out.kind = Command::Kind::Detach;
    } else {
        return false;
    }
    return true;
}

} // namespace

bool
parseCommand(const std::string &line, Command &out, std::string &err)
{
    jsonlite::JsonValue doc;
    try {
        doc = jsonlite::parse(line);
    } catch (const std::exception &e) {
        err = std::string("malformed JSON: ") + e.what();
        return false;
    }
    if (!doc.isObject() || !doc.has("cmd") || !doc["cmd"].isString()) {
        err = "request must be a JSON object with a string 'cmd'";
        return false;
    }
    const std::string &cmd = doc["cmd"].string;
    try {
        if (!parseFields(doc, cmd, out)) {
            err = "unknown cmd '" + cmd + "'";
            return false;
        }
    } catch (const BadField &e) {
        err = cmd + ": " + e.what();
        return false;
    }
    return true;
}

std::string
errorReply(const std::string &message)
{
    std::ostringstream os;
    os << "{\"ok\": false, \"error\": ";
    obs::writeJsonString(os, message);
    os << "}";
    return os.str();
}

} // namespace ultra::inspect
