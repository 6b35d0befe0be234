/**
 * @file
 * Log-bucketed latency histogram (HdrHistogram-style).
 *
 * The simulator's scalar counters answer "how much"; the histograms
 * answer "how is it distributed" — the paper's evaluation reasons about
 * critical-path latency *tails* (Fig. 7b) and GC-induced pauses
 * (Fig. 10), which a mean conceals. Values are recorded in their
 * natural integer unit (usually ticks); buckets are exact below 16 and
 * grow geometrically above with 16 sub-buckets per octave, bounding
 * the relative quantile error at 1/16 (~6%) while keeping the whole
 * histogram under 8 KB.
 */

#ifndef HOOPNVM_STATS_HISTOGRAM_HH
#define HOOPNVM_STATS_HISTOGRAM_HH

#include <array>
#include <cstdint>

namespace hoopnvm
{

/** Log-bucketed histogram of unsigned 64-bit samples. */
class Histogram
{
  public:
    /** Sub-buckets per octave; values below this are bucketed exactly. */
    static constexpr unsigned kSubBuckets = 16;

    /** log2(kSubBuckets). */
    static constexpr unsigned kSubBucketBits = 4;

    /** Total bucket count (indexes 0 .. kBuckets-1 cover all of u64). */
    static constexpr std::size_t kBuckets =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

    Histogram() { reset(); }

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Record @p n identical samples. */
    void recordN(std::uint64_t value, std::uint64_t n);

    /** Forget every sample. */
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean of all samples (0 when empty). */
    double mean() const;

    /**
     * Quantile @p q in [0, 1], linearly interpolated within the bucket
     * holding the target rank and clamped to [min(), max()]. With
     * width-1 buckets (values < kSubBuckets, or any set of identical
     * samples) the result is exact.
     *
     * Saturation rule: when the target rank is the last sample —
     * i.e. ceil(q * count) >= count, equivalently count < 1/(1-q) —
     * the nearest-rank sample *is* the maximum, so the exact max() is
     * returned instead of interpolating inside the top occupied
     * bucket. A p999 of a 100-sample histogram is therefore the true
     * max, not a point ~6% into the max bucket. quantileSaturated()
     * reports when this rule applied so dumps can mark the value as
     * an under-populated tail rather than a resolved quantile.
     */
    double quantile(double q) const;

    /**
     * True when quantile(q) over @p count samples falls under the
     * saturation rule above (also true for empty histograms). Static:
     * callers often test a summary's recorded count without the
     * histogram at hand.
     */
    static bool quantileSaturated(std::uint64_t count, double q);

    /** Bucket index holding @p value. */
    static std::size_t bucketIndex(std::uint64_t value);

    /** Inclusive lower bound of bucket @p index. */
    static std::uint64_t bucketLow(std::size_t index);

    /** Exclusive upper bound of bucket @p index. */
    static std::uint64_t bucketHigh(std::size_t index);

    /** Raw count of bucket @p index (tests). */
    std::uint64_t bucketCount(std::size_t index) const
    {
        return buckets_[index];
    }

  private:
    std::array<std::uint64_t, kBuckets> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_STATS_HISTOGRAM_HH
