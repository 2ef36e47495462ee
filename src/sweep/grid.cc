#include "sweep/grid.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/json_lite.h"

namespace ultra::sweep
{

namespace
{

/** The accepted grid parameters -- exactly the `ultrasim net` flags
 *  that shape a simulated point. */
enum class ParamKind { Bool, Num, Str };

/** Largest value of a 32-bit field, and the largest integer a double
 *  holds exactly (the cap for 64-bit fields). */
constexpr double kMax32 = 4294967295.0;
constexpr double kMax53 = 9007199254740992.0;

struct KnownParam
{
    const char *name;
    ParamKind kind;
    /** Num params that must be integers in [0, intMax], so the value
     *  fits the spec field it is narrowed into; 0 = any number. */
    double intMax;
};

const KnownParam kKnownParams[] = {
    {"burroughs", ParamKind::Bool, 0},
    {"closed", ParamKind::Num, kMax32},
    {"cycles", ParamKind::Num, kMax53},
    {"d", ParamKind::Num, kMax32},
    {"hot", ParamKind::Num, 0},
    {"ideal", ParamKind::Bool, 0},
    {"k", ParamKind::Num, kMax32},
    {"latency", ParamKind::Bool, 0},
    {"m", ParamKind::Num, kMax32},
    {"policy", ParamKind::Str, 0},
    {"ports", ParamKind::Num, kMax32},
    {"queue", ParamKind::Num, kMax32},
    {"rate", ParamKind::Num, 0},
    {"seed", ParamKind::Num, kMax53},
    {"uniform", ParamKind::Bool, 0},
};

const KnownParam *
findParam(const std::string &name)
{
    for (const KnownParam &p : kKnownParams) {
        if (name == p.name)
            return &p;
    }
    return nullptr;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Scalar JSON value -> ParamValue, validated against the parameter's
 *  declared kind. */
bool
paramFromJson(const KnownParam &known, const jsonlite::JsonValue &v,
              ParamValue &out, std::string &err)
{
    switch (known.kind) {
    case ParamKind::Bool:
        if (v.type != jsonlite::JsonValue::Type::Bool) {
            err = "parameter '" + std::string(known.name) +
                  "' must be true/false";
            return false;
        }
        out = ParamValue::boolean(v.boolean);
        return true;
    case ParamKind::Num:
        if (!v.isNumber()) {
            err = "parameter '" + std::string(known.name) +
                  "' must be a number";
            return false;
        }
        if (known.intMax != 0 &&
            (v.number < 0 || v.number > known.intMax ||
             v.number != std::floor(v.number))) {
            std::ostringstream os;
            os << "parameter '" << known.name
               << "' must be an integer in [0, " << std::fixed
               << std::setprecision(0) << known.intMax << "]";
            err = os.str();
            return false;
        }
        out = ParamValue::number(v.number);
        return true;
    case ParamKind::Str:
        if (!v.isString()) {
            err = "parameter '" + std::string(known.name) +
                  "' must be a string";
            return false;
        }
        out = ParamValue::text(v.string);
        return true;
    }
    return false;
}

/** Expand one grid object, appending points (global indices). */
bool
expandGrid(const jsonlite::JsonValue &grid, std::vector<Point> &points,
           std::string &err)
{
    if (!grid.isObject()) {
        err = "grid entries must be objects";
        return false;
    }
    std::string tag;
    if (grid.has("tag")) {
        if (!grid["tag"].isString()) {
            err = "grid 'tag' must be a string";
            return false;
        }
        tag = grid["tag"].string;
    }
    ParamMap base;
    if (grid.has("base") && !loadParamsJson(grid["base"], base, err))
        return false;

    // Axes in sorted key order (std::map), each a non-empty array of
    // scalars; the last key varies fastest.
    std::vector<std::pair<std::string, std::vector<ParamValue>>> axes;
    if (grid.has("axes")) {
        const jsonlite::JsonValue &ax = grid["axes"];
        if (!ax.isObject()) {
            err = "grid 'axes' must be an object";
            return false;
        }
        for (const auto &kv : ax.object) {
            const KnownParam *known = findParam(kv.first);
            if (known == nullptr) {
                err = "unknown parameter '" + kv.first + "'";
                return false;
            }
            if (!kv.second.isArray() || kv.second.array.empty()) {
                err = "axis '" + kv.first +
                      "' must be a non-empty array";
                return false;
            }
            std::vector<ParamValue> vals;
            for (const jsonlite::JsonValue &v : kv.second.array) {
                ParamValue pv;
                if (!paramFromJson(*known, v, pv, err))
                    return false;
                vals.push_back(pv);
            }
            axes.emplace_back(kv.first, std::move(vals));
        }
    }

    std::size_t seeds = 0; // 0 = no seed replication
    if (grid.has("seeds")) {
        const jsonlite::JsonValue &s = grid["seeds"];
        if (!s.isNumber() || s.number < 1 || s.number > kMax32 ||
            s.number != std::floor(s.number)) {
            err = "grid 'seeds' must be a positive integer";
            return false;
        }
        seeds = static_cast<std::size_t>(s.number);
    }
    std::uint64_t seedBase = 1;
    if (grid.has("seed_base")) {
        const jsonlite::JsonValue &s = grid["seed_base"];
        if (!s.isNumber() || s.number < 0 || s.number > kMax53 ||
            s.number != std::floor(s.number)) {
            err = "grid 'seed_base' must be a non-negative integer";
            return false;
        }
        seedBase = static_cast<std::uint64_t>(s.number);
    }

    // Odometer over the axes; the replication loop is innermost.
    std::vector<std::size_t> idx(axes.size(), 0);
    for (;;) {
        ParamMap combo = base;
        for (std::size_t a = 0; a < axes.size(); ++a)
            combo[axes[a].first] = axes[a].second[idx[a]];
        const std::size_t reps = seeds == 0 ? 1 : seeds;
        for (std::size_t r = 0; r < reps; ++r) {
            Point pt;
            pt.index = points.size();
            pt.tag = tag;
            pt.params = combo;
            if (seeds != 0) {
                pt.params["seed"] = ParamValue::number(
                    static_cast<double>(
                        derivePointSeed(seedBase, pt.index)));
            } else if (pt.params.count("seed") == 0) {
                pt.params["seed"] = ParamValue::number(1);
            }
            points.push_back(std::move(pt));
        }
        std::size_t a = axes.size();
        while (a-- > 0) {
            if (++idx[a] < axes[a].second.size())
                break;
            idx[a] = 0;
            if (a == 0)
                return true;
        }
        if (axes.empty())
            return true;
    }
}

double
numParam(const ParamMap &params, const char *name, double fallback)
{
    auto it = params.find(name);
    return it == params.end() ? fallback : it->second.num;
}

bool
boolParam(const ParamMap &params, const char *name)
{
    auto it = params.find(name);
    return it != params.end() && it->second.kind == ParamValue::Kind::Bool
               ? it->second.b
               : false;
}

} // namespace

bool
loadParamsJson(const jsonlite::JsonValue &obj, ParamMap &out,
               std::string &err)
{
    if (!obj.isObject()) {
        err = "parameters must be a JSON object";
        return false;
    }
    for (const auto &kv : obj.object) {
        const KnownParam *known = findParam(kv.first);
        if (known == nullptr) {
            err = "unknown parameter '" + kv.first + "'";
            return false;
        }
        ParamValue v;
        if (!paramFromJson(*known, kv.second, v, err))
            return false;
        out[kv.first] = v;
    }
    return true;
}

ParamValue
ParamValue::boolean(bool v)
{
    ParamValue p;
    p.kind = Kind::Bool;
    p.b = v;
    return p;
}

ParamValue
ParamValue::number(double v)
{
    ParamValue p;
    p.kind = Kind::Num;
    p.num = v;
    return p;
}

ParamValue
ParamValue::text(std::string v)
{
    ParamValue p;
    p.kind = Kind::Str;
    p.str = std::move(v);
    return p;
}

std::string
ParamValue::jsonText() const
{
    switch (kind) {
    case Kind::Bool: return b ? "true" : "false";
    case Kind::Str: return "\"" + jsonEscape(str) + "\"";
    case Kind::Num: break;
    }
    char buf[64];
    if (num == std::floor(num) && std::abs(num) < 9e15) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(num));
        return buf;
    }
    // Shortest rendering that round-trips exactly: argv built from
    // this text must parse back to the simulated value.
    std::snprintf(buf, sizeof buf, "%g", num);
    if (std::strtod(buf, nullptr) == num)
        return buf;
    std::snprintf(buf, sizeof buf, "%.17g", num);
    return buf;
}

std::uint64_t
derivePointSeed(std::uint64_t base, std::size_t index)
{
    // splitmix64 over a base-and-index mix: stable across platforms,
    // a pure function of its arguments, and free of the correlated
    // low-bit structure of (base + index) itself.
    std::uint64_t z = base + 0x9E3779B97F4A7C15ull *
                                 (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    // Keep seeds in a CLI-friendly range: --seed round-trips through
    // strtoull either way, but small positive values read better in
    // grids and argv lines.
    z %= 1000000007ull;
    return z == 0 ? 1 : z;
}

std::vector<Point>
expandGridFile(const std::string &text, std::string &err)
{
    err.clear();
    std::vector<Point> points;
    jsonlite::JsonValue doc;
    try {
        doc = jsonlite::parse(text);
    } catch (const std::exception &e) {
        err = e.what();
        return {};
    }
    if (!doc.isObject() || !doc.has("schema") ||
        !doc["schema"].isString() ||
        doc["schema"].string != "sweep.grid.v1") {
        err = "not a sweep.grid.v1 document (missing/wrong \"schema\")";
        return {};
    }
    if (doc.has("grids")) {
        if (!doc["grids"].isArray()) {
            err = "\"grids\" must be an array";
            return {};
        }
        for (const jsonlite::JsonValue &g : doc["grids"].array) {
            if (!expandGrid(g, points, err))
                return {};
        }
    } else {
        if (!expandGrid(doc, points, err))
            return {};
    }
    if (points.empty())
        err = "grid expands to zero points";
    // Check every point now, so a bad value stops the sweep before any
    // worker forks instead of failing (and being retried) in one.
    for (std::size_t i = 0; err.empty() && i < points.size(); ++i) {
        specFromParams(points[i].params, err);
        if (!err.empty())
            err = "point " + std::to_string(i) + ": " + err;
    }
    return err.empty() ? points : std::vector<Point>{};
}

NetPointSpec
specFromParams(const ParamMap &params, std::string &err)
{
    err.clear();
    NetPointSpec spec;
    for (const auto &kv : params) {
        if (findParam(kv.first) == nullptr) {
            err = "unknown parameter '" + kv.first + "'";
            return spec;
        }
    }
    net::NetSimConfig &ncfg = spec.net;
    ncfg.numPorts =
        static_cast<std::uint32_t>(numParam(params, "ports", 256));
    ncfg.k = static_cast<unsigned>(numParam(params, "k", 2));
    ncfg.m = static_cast<unsigned>(numParam(params, "m", ncfg.k));
    ncfg.d = static_cast<unsigned>(numParam(params, "d", 1));
    ncfg.queueCapacityPackets =
        static_cast<std::uint32_t>(numParam(params, "queue", 15));
    ncfg.mmPendingCapacityPackets = ncfg.queueCapacityPackets;
    ncfg.sizing = boolParam(params, "uniform")
                      ? net::PacketSizing::Uniform
                      : net::PacketSizing::ByContent;
    ncfg.burroughsKill = boolParam(params, "burroughs");
    ncfg.idealParacomputer = boolParam(params, "ideal");
    std::string policy = "full";
    if (params.count("policy") != 0)
        policy = params.at("policy").str;
    if (policy == "none") {
        ncfg.combinePolicy = net::CombinePolicy::None;
    } else if (policy == "homo") {
        ncfg.combinePolicy = net::CombinePolicy::Homogeneous;
    } else if (policy == "full") {
        ncfg.combinePolicy = net::CombinePolicy::Full;
    } else {
        err = "unknown policy '" + policy + "'";
        return spec;
    }

    net::TrafficConfig &tcfg = spec.traffic;
    tcfg.activePes = ncfg.numPorts;
    tcfg.rate = numParam(params, "rate", 0.1);
    tcfg.hotFraction = numParam(params, "hot", 0.0);
    tcfg.hotAddr = 13;
    tcfg.addrSpaceWords = std::uint64_t{ncfg.numPorts} << 8;
    if (params.count("closed") != 0) {
        tcfg.closedLoop = true;
        tcfg.window =
            static_cast<unsigned>(numParam(params, "closed", 1));
    }
    tcfg.seed =
        static_cast<std::uint64_t>(numParam(params, "seed", 1));

    spec.pni.maxOutstanding = tcfg.closedLoop ? 0 : 8;
    spec.cycles =
        static_cast<Cycle>(numParam(params, "cycles", 10000));
    spec.wantLatency = boolParam(params, "latency");
    err = validate(spec);
    return spec;
}

std::vector<std::string>
argvForParams(const ParamMap &params)
{
    std::vector<std::string> argv;
    argv.push_back("net");
    for (const auto &kv : params) {
        if (kv.first == "latency")
            continue; // observability, not an `ultrasim net` sim flag
        if (kv.second.kind == ParamValue::Kind::Bool) {
            if (kv.second.b)
                argv.push_back("--" + kv.first);
            continue;
        }
        argv.push_back("--" + kv.first);
        argv.push_back(kv.second.kind == ParamValue::Kind::Str
                           ? kv.second.str
                           : kv.second.jsonText());
    }
    return argv;
}

std::string
pointRecordJson(const Point &point, const std::string &statsDump,
                const NetRunSummary &summary)
{
    std::ostringstream os;
    os << "{\"argv\": [";
    const std::vector<std::string> argv = argvForParams(point.params);
    for (std::size_t i = 0; i < argv.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << "\"" << jsonEscape(argv[i]) << "\"";
    }
    os << "], \"index\": " << point.index << ", \"params\": {";
    bool first = true;
    for (const auto &kv : point.params) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << jsonEscape(kv.first)
           << "\": " << kv.second.jsonText();
    }
    // The dump is file-shaped (trailing newline); a record is one
    // line, so embed it trimmed.
    std::string stats = statsDump;
    while (!stats.empty() &&
           (stats.back() == '\n' || stats.back() == '\r')) {
        stats.pop_back();
    }
    os << "}, \"stats\": " << stats
       << ", \"summary\": " << summary.json() << ", \"tag\": \""
       << jsonEscape(point.tag) << "\"}";
    return os.str();
}

std::string
mergeSweepJson(const std::vector<std::string> &records)
{
    std::ostringstream os;
    os << "{\"point_count\": " << records.size() << ", \"points\": [";
    for (std::size_t i = 0; i < records.size(); ++i)
        os << (i == 0 ? "\n" : ",\n") << records[i];
    if (!records.empty())
        os << "\n";
    os << "], \"schema\": \"sweep.v1\"}\n";
    return os.str();
}

bool
isSweepDocument(const std::string &text)
{
    try {
        const jsonlite::JsonValue doc = jsonlite::parse(text);
        return doc.isObject() && doc.has("schema") &&
               doc["schema"].isString() &&
               doc["schema"].string == "sweep.v1";
    } catch (const std::exception &) {
        return false;
    }
}

std::string
emitFig7Json(const std::string &mergedSweep, const std::string &tag,
             std::string &err)
{
    err.clear();
    jsonlite::JsonValue doc;
    try {
        doc = jsonlite::parse(mergedSweep);
    } catch (const std::exception &e) {
        err = e.what();
        return "";
    }
    if (!doc.has("points") || !doc["points"].isArray()) {
        err = "not a sweep.v1 document";
        return "";
    }
    std::ostringstream body;
    double worst = 0.0;
    unsigned long long ports = 0;
    std::size_t count = 0;
    for (const jsonlite::JsonValue &pt : doc["points"].array) {
        if (!pt.isObject() || !pt.has("tag") || pt["tag"].string != tag)
            continue;
        const jsonlite::JsonValue &params = pt["params"];
        const jsonlite::JsonValue &summary = pt["summary"];
        if (summary["model_applicable"].number == 0) {
            err = "point " +
                  std::to_string(static_cast<long long>(
                      pt["index"].number)) +
                  " (tag '" + tag + "') is not model-applicable";
            return "";
        }
        if (ports == 0) {
            ports = static_cast<unsigned long long>(
                params["ports"].number);
        }
        const double drift = summary["drift"].number;
        worst = std::max(worst, std::abs(drift));
        if (count > 0)
            body << ",\n";
        body << "    {\"k\": "
             << static_cast<unsigned>(params["k"].number)
             << ", \"d\": " << static_cast<unsigned>(params["d"].number)
             << ", \"p\": " << params["rate"].number
             << ", \"predicted\": " << summary["predicted_transit"].number
             << ", \"measured\": " << summary["measured_transit"].number
             << ", \"drift\": " << drift << "}";
        ++count;
    }
    if (count == 0) {
        err = "no points with tag '" + tag + "'";
        return "";
    }
    std::ostringstream out;
    out << "{\n  \"bench\": \"fig7_transit_time\",\n"
        << "  \"ports\": " << ports << ",\n"
        << "  \"tolerance\": " << analytic::kDefaultDriftTolerance
        << ",\n"
        << "  \"worst_abs_drift\": " << worst << ",\n"
        << "  \"points\": [\n"
        << body.str() << "\n  ]\n}\n";
    return out.str();
}

std::string
emitHotspotJson(const std::string &mergedSweep, const std::string &tag,
                std::string &err)
{
    err.clear();
    jsonlite::JsonValue doc;
    try {
        doc = jsonlite::parse(mergedSweep);
    } catch (const std::exception &e) {
        err = e.what();
        return "";
    }
    if (!doc.has("points") || !doc["points"].isArray()) {
        err = "not a sweep.v1 document";
        return "";
    }
    std::ostringstream body;
    std::size_t count = 0;
    for (const jsonlite::JsonValue &pt : doc["points"].array) {
        if (!pt.isObject() || !pt.has("tag") || pt["tag"].string != tag)
            continue;
        const jsonlite::JsonValue &params = pt["params"];
        const jsonlite::JsonValue &summary = pt["summary"];
        if (!summary.has("lat")) {
            err = "point " +
                  std::to_string(static_cast<long long>(
                      pt["index"].number)) +
                  " (tag '" + tag +
                  "') has no latency analytics; set \"latency\": true";
            return "";
        }
        const jsonlite::JsonValue &lat = summary["lat"];
        const auto u64 = [](const jsonlite::JsonValue &v) {
            return static_cast<unsigned long long>(v.number);
        };
        if (count > 0)
            body << ",\n";
        body << "    {\"ports\": " << u64(params["ports"])
             << ", \"ops_per_cycle\": "
             << summary["ops_per_cycle"].number
             << ", \"access_time\": " << summary["access_mean"].number
             << ", \"combined_fraction\": "
             << summary["combined_fraction"].number
             << ", \"delivered\": " << u64(lat["delivered"])
             << ", \"combined_delivered\": "
             << u64(lat["combined_delivered"])
             << ", \"mm_cycles_saved\": " << u64(lat["mm_cycles_saved"])
             << ", \"fanin_p50\": " << u64(lat["fanin_p50"])
             << ", \"fanin_max\": " << u64(lat["fanin_max"])
             << ", \"violations\": " << u64(lat["violations"]) << "}";
        ++count;
    }
    if (count == 0) {
        err = "no points with tag '" + tag + "'";
        return "";
    }
    std::ostringstream out;
    out << "{\n  \"bench\": \"hotspot_combining\",\n"
        << "  \"design\": \"combining\",\n  \"runs\": [\n"
        << body.str() << "\n  ]\n}\n";
    return out.str();
}

} // namespace ultra::sweep
