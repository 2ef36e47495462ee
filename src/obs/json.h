/**
 * @file
 * Minimal JSON emission helpers shared by the observability sinks
 * (registry dumps, trace-event files).  Writing only; the inputs that
 * are JSON (sweep grids, inspect requests) are parsed by
 * common/json_lite.h.
 */

#ifndef ULTRA_OBS_JSON_H
#define ULTRA_OBS_JSON_H

#include <ostream>
#include <string_view>

namespace ultra
{
class Accumulator;
class Histogram;
} // namespace ultra

namespace ultra::obs
{

/** Write @p s as a JSON string literal, with escaping. */
void writeJsonString(std::ostream &os, std::string_view s);

/**
 * Write @p x as a JSON number.  Integral values print without a
 * fraction; non-finite values (which JSON cannot represent) print as
 * null.
 */
void writeJsonNumber(std::ostream &os, double x);

/** {"count": .., "mean": .., "stddev": .., "min": .., "max": ..} --
 *  the registry-dump shape, shared by every sink. */
void writeJsonAccumulator(std::ostream &os, const Accumulator &acc);

/** {"count": .., "mean": .., "bin_width": .., "p50": .., "p95": ..,
 *  "p99": .., "bins": [..]} with trailing empty bins trimmed. */
void writeJsonHistogram(std::ostream &os, const Histogram &hist);

} // namespace ultra::obs

#endif // ULTRA_OBS_JSON_H
