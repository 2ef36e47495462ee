/**
 * @file
 * Sweep grids (ultra::sweep): a JSON parameter grid expands into a
 * deterministic, totally-ordered list of experiment points.
 *
 * Grid file schema ("sweep.grid.v1"):
 *
 *     {"schema": "sweep.grid.v1",
 *      "grids": [
 *        {"tag": "smoke",
 *         "base": {"ports": 16, "cycles": 400},
 *         "axes": {"rate": [0.05, 0.1], "hot": [0.0, 0.25]},
 *         "seeds": 2,
 *         "seed_base": 1}]}
 *
 * (A single-grid file may also put tag/base/axes at top level.)  Every
 * parameter name is an `ultrasim net` flag ("latency": true is
 * `--latency`, which adds the lat.* keys to the stats dump); unknown
 * names are rejected -- a typo must never silently become a
 * default-configured experiment.
 *
 * One table in grid.cc declares the net parameters' names, kinds and
 * ranges, and specFromParams alone holds their defaults, so grid values
 * and `ultrasim` flags (paramFromFlag) parse the same way.
 *
 * Expansion is canonical: axes iterate in sorted key order (the last
 * key fastest), an optional `seeds` replication is the innermost
 * dimension, and grids expand in file order.  The per-point seed is a
 * pure function of (seed_base, global point index) -- never of worker
 * scheduling -- which is what makes a sweep's merged output
 * byte-identical at any worker count.
 *
 * Result schema ("sweep.v1"): {"point_count", "points", "schema"},
 * each point a pointRecordJson record whose metrics are its embedded
 * stats dump ("net.delivered", "model.drift", ...) and nothing else.
 */

#ifndef ULTRA_SWEEP_GRID_H
#define ULTRA_SWEEP_GRID_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sweep/net_run.h"

namespace jsonlite
{
struct JsonValue;
} // namespace jsonlite

namespace ultra::sweep
{

/** One grid parameter value, with its canonical JSON rendering. */
struct ParamValue
{
    enum class Kind { Bool, Num, Str };
    Kind kind = Kind::Num;
    bool b = false;
    double num = 0.0;
    std::string str;

    static ParamValue boolean(bool v);
    static ParamValue number(double v);
    static ParamValue text(std::string v);

    /** Canonical JSON text (round-trips exactly through strtod). */
    std::string jsonText() const;
};

/** Resolved parameters of one point, sorted by name. */
using ParamMap = std::map<std::string, ParamValue>;

/** One expanded experiment point. */
struct Point
{
    std::size_t index = 0; //!< global index across the whole file
    std::string tag;       //!< owning grid's tag ("" when unset)
    ParamMap params;       //!< includes the resolved "seed"
};

/** Deterministic per-point seed: splitmix64 over (base, index).  The
 *  pure-function-of-index contract is pinned by sweep_test. */
std::uint64_t derivePointSeed(std::uint64_t base, std::size_t index);

/**
 * Parse + expand a "sweep.grid.v1" document.  On any problem (bad
 * JSON, wrong schema, unknown parameter, non-array axis, a point that
 * specFromParams rejects) returns an empty vector with @p err set; err
 * is empty on success.
 */
std::vector<Point> expandGridFile(const std::string &text,
                                  std::string &err);

/** Load a parameter object (a grid's `base`, or a sweep record's
 *  `params`) into @p out, validating names and value kinds like an
 *  axis.  False, with @p err set, on the first bad entry. */
bool loadParamsJson(const jsonlite::JsonValue &obj, ParamMap &out,
                    std::string &err);

/** Map a point's parameters onto a run spec, filling in the defaults.
 *  Unknown names, values the parameter table rejects and a network that
 *  cannot be built set @p err: every entry point (`ultrasim net`,
 *  `trace --replay`, grid points) comes through here, so a bad value
 *  gets a message instead of reaching an assertion. */
NetPointSpec specFromParams(const ParamMap &params, std::string &err);

/** The `ultrasim` surfaces that take net parameters as flags: `net`
 *  takes every one, `trace --replay` only those that shape the
 *  network. */
enum class FlagSurface { Net, Replay };

/**
 * Add the flag --@p name with value @p text ("" for a bare flag) to
 * @p params, with the kind and range the parameter table gives it: a
 * boolean takes no value, an integer only decimal digits.  False, with
 * @p err naming the flag, when @p name is no flag of @p surface or
 * @p text does not fit.  Values that only fail together (ports not a
 * power of k, an unknown policy) are specFromParams's to reject.
 */
bool paramFromFlag(FlagSurface surface, const std::string &name,
                   const std::string &text, ParamMap &params,
                   std::string &err);

/** The names paramFromFlag accepts on @p surface, sorted. */
std::vector<std::string> flagNames(FlagSurface surface);

/** The `ultrasim net` argument vector reproducing @p params (without
 *  any output flags): ["net", "--ports", "16", ...].  Replayed with
 *  --stats-json it writes the point's stats dump byte for byte. */
std::vector<std::string> argvForParams(const ParamMap &params);

/**
 * One sweep.v1 point record (a single line):
 *
 *   {"argv": [...], "index": N, "params": {...}, "stats": <dump>,
 *    "tag": "..."}
 *
 * @p statsDump is embedded verbatim and is the record's only copy of
 * the point's metrics: its bytes equal the standalone --stats-json
 * bytes.
 */
std::string pointRecordJson(const Point &point,
                            const std::string &statsDump);

/** Merge point records (already in index order) into a sweep.v1
 *  document.  Pure concatenation: merged bytes depend only on the
 *  records, never on worker count or completion order. */
std::string mergeSweepJson(const std::vector<std::string> &records);

/** True when @p doc parses as a sweep.v1 document. */
bool isSweepDocument(const std::string &text);

} // namespace ultra::sweep

#endif // ULTRA_SWEEP_GRID_H
