/**
 * @file
 * Lightweight statistics collection for the simulator.
 *
 * Accumulator tracks count / mean / variance / extremes with Welford's
 * online algorithm; Histogram bins integer samples for latency
 * distributions (used to study the queueing delays of section 4).
 */

#ifndef ULTRA_COMMON_STATS_H
#define ULTRA_COMMON_STATS_H

#include <cstdint>
#include <vector>

namespace ultra
{

/** Online mean / variance / min / max over double samples. */
class Accumulator
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Drop all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return mean_ * static_cast<double>(count_); }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (0 with fewer than 2 samples). */
    double variance() const;
    double stddev() const;

    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width-bin histogram over nonnegative integer samples. */
class Histogram
{
  public:
    /**
     * @param bin_width Width of each bin.
     * @param num_bins  Number of regular bins; larger samples land in a
     *                  final overflow bin.
     */
    explicit Histogram(std::uint64_t bin_width = 1,
                       std::size_t num_bins = 64);

    void add(std::uint64_t x);

    void reset();

    std::uint64_t count() const { return total_; }
    double mean() const;

    /** Smallest sample value s.t. at least @p q of samples are <= it. */
    std::uint64_t percentile(double q) const;

    /** Count in bin @p i (the last bin is the overflow bin). */
    std::uint64_t binCount(std::size_t i) const { return bins_.at(i); }
    std::size_t numBins() const { return bins_.size(); }
    std::uint64_t binWidth() const { return binWidth_; }

  private:
    std::uint64_t binWidth_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t maxSample_ = 0;
};

} // namespace ultra

#endif // ULTRA_COMMON_STATS_H
