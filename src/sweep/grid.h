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
 * parameter name is an `ultrasim net` flag; unknown names are rejected
 * -- a typo must never silently become a default-configured
 * experiment, the same contract the CLI enforces.
 *
 * Expansion is canonical: axes iterate in sorted key order (the last
 * key fastest), an optional `seeds` replication is the innermost
 * dimension, and grids expand in file order.  The per-point seed is a
 * pure function of (seed_base, global point index) -- never of worker
 * scheduling -- which is what makes a sweep's merged output
 * byte-identical at any worker count.
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

/** Map a point's parameters onto a run spec.  Unknown names and any
 *  value validate() rejects set @p err. */
NetPointSpec specFromParams(const ParamMap &params, std::string &err);

/** Load a parsed JSON object of parameters (the `--serve` job shape)
 *  into @p out, validating names and value kinds exactly like the
 *  grid loader.  Returns false with @p err set on any problem. */
bool loadParamsJson(const jsonlite::JsonValue &obj, ParamMap &out,
                    std::string &err);

/** The `ultrasim net` argument vector reproducing @p params (without
 *  any output flags): ["net", "--ports", "16", ...]. */
std::vector<std::string> argvForParams(const ParamMap &params);

/**
 * One sweep.v1 point record (a single line):
 *
 *   {"argv": [...], "index": N, "params": {...}, "stats": <dump>,
 *    "summary": {...}, "tag": "..."}
 *
 * @p statsDump is embedded verbatim, so the record's bytes equal the
 * standalone --stats-json bytes wherever they overlap.
 */
std::string pointRecordJson(const Point &point,
                            const std::string &statsDump,
                            const NetRunSummary &summary);

/** Merge point records (already in index order) into a sweep.v1
 *  document.  Pure concatenation: merged bytes depend only on the
 *  records, never on worker count or completion order. */
std::string mergeSweepJson(const std::vector<std::string> &records);

/** True when @p doc parses as a sweep.v1 document. */
bool isSweepDocument(const std::string &text);

/**
 * Render BENCH_fig7.json from the merged records carrying @p tag
 * (schema-compatible with bench/fig7_transit_time.cc).  Returns ""
 * and sets @p err when no point with the tag is model-applicable.
 */
std::string emitFig7Json(const std::string &mergedSweep,
                         const std::string &tag, std::string &err);

/** Render BENCH_hotspot.json (schema-compatible with
 *  bench/hotspot_combining.cc) from records carrying @p tag. */
std::string emitHotspotJson(const std::string &mergedSweep,
                            const std::string &tag, std::string &err);

} // namespace ultra::sweep

#endif // ULTRA_SWEEP_GRID_H
