/**
 * @file
 * Unified statistics registry (gem5-style), the heart of ultra::obs.
 *
 * Components register named statistics under a hierarchical dotted path
 * ("net.stage2.combines", "pni.retries", "mem.module12.fa_ops") during
 * construction; the registry then renders all of them as one
 * machine-readable JSON dump without the components knowing its
 * format.
 *
 * Three kinds of statistic are supported:
 *   - scalars: a getter returning the current value.  Works equally for
 *     monotone counters ("net.injected") and live gauges sampled at
 *     read time ("net.stage0.tomm_pkts", current queue occupancy);
 *   - Accumulators (count / mean / stddev / min / max);
 *   - Histograms (binned distributions with percentiles).
 *
 * Registration is getter-based, so the registry holds no data of its
 * own and reads are always current: resetting a component's stats is
 * immediately visible through the registry.  Paths must be unique;
 * registering a duplicate is a simulator bug (panic).
 */

#ifndef ULTRA_OBS_REGISTRY_H
#define ULTRA_OBS_REGISTRY_H

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace ultra::obs
{

/** Rendering options for Registry::jsonDump. */
struct DumpOptions
{
    /** Emit entries sorted by path instead of registration order.
     *  Registration order depends on construction details; sorted
     *  output is stable across code motion and repeated runs. */
    bool sortKeys = false;
    /** One entry per line (the historical format) vs. one line. */
    bool pretty = true;
};

/** The hierarchical name -> statistic table. */
class Registry
{
  public:
    /** Getter for a scalar statistic (counter or gauge). */
    using ValueFn = std::function<double()>;

    /** Register a scalar under @p path (panics on duplicates). */
    void addScalar(const std::string &path, ValueFn fn);

    /** Register an Accumulator; @p acc must outlive the registry. */
    void addAccumulator(const std::string &path, const Accumulator *acc);

    /** Register a Histogram; @p hist must outlive the registry. */
    void addHistogram(const std::string &path, const Histogram *hist);

    bool has(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /** All registered paths, in registration order. */
    std::vector<std::string> paths() const;

    /**
     * Current numeric value of @p path: the scalar itself, or an
     * Accumulator's mean, or a Histogram's mean.  Panics when the path
     * is unknown.
     */
    double value(const std::string &path) const;

    /** The registered Accumulator (panics unless @p path names one). */
    const Accumulator &accumulator(const std::string &path) const;

    /** The registered Histogram (panics unless @p path names one). */
    const Histogram &histogram(const std::string &path) const;

    /**
     * Machine-readable dump: one JSON object keyed by full path, with
     * scalars as numbers and accumulators / histograms as objects.
     *
     * {"cycle": 123, "stats": {"net.injected": 42,
     *   "net.round_trip": {"count":..,"mean":..,...}, ...}}
     *
     * The default rendering (registration order, one entry per line)
     * is pinned byte-for-byte by the golden regression suite; pass
     * DumpOptions for sorted keys or compact output.
     */
    std::string jsonDump(Cycle now) const { return jsonDump(now, {}); }
    std::string jsonDump(Cycle now, const DumpOptions &opts) const;

  private:
    enum class Kind : std::uint8_t { Scalar, Accumulator, Histogram };

    struct Entry
    {
        std::string path;
        Kind kind;
        ValueFn fn;
        const Accumulator *acc = nullptr;
        const Histogram *hist = nullptr;
    };

    const Entry &find(const std::string &path) const;
    void insert(Entry entry);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace ultra::obs

#endif // ULTRA_OBS_REGISTRY_H
