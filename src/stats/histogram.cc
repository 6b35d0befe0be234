#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace hoopnvm
{

std::size_t
Histogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::size_t>(value);
    const unsigned octave = std::bit_width(value) - 1; // floor(log2)
    const unsigned shift = octave - kSubBucketBits;
    const std::uint64_t sub = (value >> shift) - kSubBuckets;
    return kSubBuckets +
           static_cast<std::size_t>(octave - kSubBucketBits) *
               kSubBuckets +
           static_cast<std::size_t>(sub);
}

std::uint64_t
Histogram::bucketLow(std::size_t index)
{
    if (index < kSubBuckets)
        return index;
    const std::size_t rel = index - kSubBuckets;
    const unsigned octave =
        kSubBucketBits + static_cast<unsigned>(rel / kSubBuckets);
    const std::uint64_t sub = rel % kSubBuckets;
    return (kSubBuckets + sub) << (octave - kSubBucketBits);
}

std::uint64_t
Histogram::bucketHigh(std::size_t index)
{
    if (index < kSubBuckets)
        return index + 1;
    const std::size_t rel = index - kSubBuckets;
    const unsigned octave =
        kSubBucketBits + static_cast<unsigned>(rel / kSubBuckets);
    return bucketLow(index) +
           (std::uint64_t{1} << (octave - kSubBucketBits));
}

void
Histogram::record(std::uint64_t value)
{
    recordN(value, 1);
}

void
Histogram::recordN(std::uint64_t value, std::uint64_t n)
{
    if (n == 0)
        return;
    buckets_[bucketIndex(value)] += n;
    if (count_ == 0 || value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
    count_ += n;
    sum_ += value * n;
}

void
Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

double
Histogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Target rank, 1-based: the smallest sample index covering q of
    // the distribution (nearest-rank), interpolated within its bucket.
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    // Saturated tail: the target rank is the last sample, whose exact
    // value the histogram tracks as max_. Return it directly instead
    // of interpolating inside the top occupied bucket — on small
    // populations (count < 1/(1-q)) the interpolation silently read a
    // point inside the max bucket, off by up to the ~6% bucket width.
    if (target >= count_)
        return static_cast<double>(max_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        if (cum + buckets_[i] >= target) {
            const std::uint64_t lo = bucketLow(i);
            const std::uint64_t hi = bucketHigh(i);
            const double frac =
                (static_cast<double>(target - cum) - 0.5) /
                static_cast<double>(buckets_[i]);
            double v = static_cast<double>(lo) +
                       frac * static_cast<double>(hi - lo);
            v = std::min(v, static_cast<double>(max_));
            v = std::max(v, static_cast<double>(count_ ? min_ : 0));
            return v;
        }
        cum += buckets_[i];
    }
    return static_cast<double>(max_);
}

bool
Histogram::quantileSaturated(std::uint64_t count, double q)
{
    if (count == 0)
        return true;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count))));
    return target >= count;
}

} // namespace hoopnvm
