#include "stats.h"

#include <algorithm>
#include <cmath>

#include "log.h"

namespace ultra
{

void
Accumulator::add(double x)
{
    ++count_;
    if (count_ == 1) {
        mean_ = x;
        min_ = x;
        max_ = x;
        m2_ = 0.0;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(std::uint64_t bin_width, std::size_t num_bins)
    : binWidth_(bin_width), bins_(num_bins + 1, 0)
{
    ULTRA_ASSERT(bin_width > 0);
    ULTRA_ASSERT(num_bins > 0);
}

void
Histogram::add(std::uint64_t x)
{
    std::size_t bin = static_cast<std::size_t>(x / binWidth_);
    if (bin >= bins_.size() - 1)
        bin = bins_.size() - 1; // overflow bin
    ++bins_[bin];
    ++total_;
    sum_ += x;
    maxSample_ = std::max(maxSample_, x);
}

void
Histogram::reset()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    total_ = 0;
    sum_ = 0;
    maxSample_ = 0;
}

double
Histogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(total_);
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (total_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= target && bins_[i] > 0) {
            if (i == bins_.size() - 1)
                return maxSample_;
            // Upper edge of the bin, a conservative answer.
            return (i + 1) * binWidth_ - 1;
        }
    }
    return maxSample_;
}

} // namespace ultra
