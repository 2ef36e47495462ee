/**
 * @file
 * `ultrasim serve` -- simulation as a service (ultra::sweep).
 *
 * A persistent server on the ultra::inspect line-oriented JSON
 * transport (TCP port or unix socket): clients submit net-mode
 * simulation jobs and the server streams results back, one JSON object
 * per line.  Protocol "ultra.serve.v1":
 *
 *   -> {"cmd": "ping"}
 *   <- {"event": "pong", "ok": 1, "schema": "ultra.serve.v1"}
 *
 *   -> {"cmd": "sim", "params": {"ports": 16, "rate": 0.1, ...},
 *       "prof": true?, "out": "stats.json"?,
 *       "latency_out": "lat.json"?}
 *   <- {"cached": 0|1, "event": "result", "index": N, "ok": 1,
 *       ["prof": {...},] "stats": {...}, "summary": {...}}
 *
 *   -> {"cmd": "status"}   server counters
 *   -> {"cmd": "shutdown"} reply {"event": "bye", "ok": 1}, then exit
 *
 * `params` takes exactly the `ultrasim net` flag names (the grid
 * vocabulary of sweep/grid.h), range-checked like the grid loader
 * (sweep::validate); `out` writes the stats dump to a file
 * with the same bytes a standalone `ultrasim net --stats-json` run
 * would produce -- the determinism contract the serve_test pins.
 * Errors reply {"error": "...", "event": "error", "ok": 0} and the
 * server keeps serving; a client disconnect (even mid-job) never
 * wedges it -- the in-flight job completes (its "out" files still
 * land), its reply is dropped rather than delivered to whichever
 * client attaches next, and the next client gets a clean line.
 *
 * Between jobs the server keeps warmed machine configurations: a
 * pristine (memory, network) rig per recent configuration, handed to
 * the next matching job and replaced with a freshly built one.  Rigs
 * are cached before first use only, so a cache hit is byte-identical
 * to a cold build by construction.  One profiler is reused with a
 * reset per job (Profiler::reset) so reports never leak across jobs.
 */

#ifndef ULTRA_SWEEP_SERVE_H
#define ULTRA_SWEEP_SERVE_H

#include <cstddef>
#include <string>

namespace ultra::sweep
{

struct ServeOptions
{
    std::size_t cacheCapacity = 4; //!< warmed configurations kept
};

/** Run the server loop on @p addr (an all-digit string is a TCP port
 *  on 127.0.0.1, 0 picks an ephemeral one; anything else is a
 *  unix-socket path).  Returns the process exit code. */
int serveMain(const std::string &addr, const ServeOptions &opts);

} // namespace ultra::sweep

#endif // ULTRA_SWEEP_SERVE_H
