/**
 * @file
 * Unit tests for the log-bucketed latency histogram: bucket boundary
 * arithmetic over the whole u64 range, and nearest-rank quantiles with
 * in-bucket interpolation and the small-population saturation rule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stats/histogram.hh"

namespace hoopnvm
{
namespace
{

TEST(HistogramBuckets, ExactBelowSubBucketCount)
{
    for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketLow(v), v);
        EXPECT_EQ(Histogram::bucketHigh(v), v + 1);
    }
}

TEST(HistogramBuckets, BoundsContainTheirValue)
{
    std::vector<std::uint64_t> vals;
    for (unsigned p = 0; p < 63; ++p) {
        const std::uint64_t v = std::uint64_t{1} << p;
        vals.push_back(v);
        vals.push_back(v - 1);
        vals.push_back(v + 1);
        vals.push_back(v | (v >> 3));
    }
    for (std::uint64_t v : vals) {
        const std::size_t i = Histogram::bucketIndex(v);
        ASSERT_LT(i, Histogram::kBuckets) << "value " << v;
        EXPECT_LE(Histogram::bucketLow(i), v) << "value " << v;
        EXPECT_GT(Histogram::bucketHigh(i), v) << "value " << v;
    }
}

TEST(HistogramBuckets, BucketsTileTheRangeWithoutGaps)
{
    for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        EXPECT_EQ(Histogram::bucketHigh(i),
                  Histogram::bucketLow(i + 1))
            << "bucket " << i;
    }
}

TEST(HistogramBuckets, RelativeWidthBoundedBySubBucketCount)
{
    // Geometric bucketing promise: width <= low / kSubBuckets above
    // the exact range, which bounds quantile error at ~1/16.
    for (std::size_t i = Histogram::kSubBuckets;
         i + 1 < Histogram::kBuckets; ++i) {
        const std::uint64_t lo = Histogram::bucketLow(i);
        const std::uint64_t width = Histogram::bucketHigh(i) - lo;
        EXPECT_LE(width, lo / Histogram::kSubBuckets)
            << "bucket " << i;
    }
}

TEST(HistogramQuantile, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramQuantile, SingleValueExactAtEveryQuantile)
{
    Histogram h;
    h.recordN(12345, 7);
    for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 12345.0) << "q " << q;
    EXPECT_EQ(h.min(), 12345u);
    EXPECT_EQ(h.max(), 12345u);
    EXPECT_EQ(h.mean(), 12345.0);
    EXPECT_EQ(h.sum(), 12345u * 7);
}

TEST(HistogramQuantile, UniformWidthOneBucketsAreHalfSampleExact)
{
    // 0..9 once each: every sample sits in its own width-1 bucket, so
    // nearest-rank + mid-bucket interpolation gives rank - 0.5.
    Histogram h;
    for (std::uint64_t v = 0; v < 10; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.1), 0.5);
    // Extremes clamp to the observed min/max.
    EXPECT_EQ(h.quantile(1.0), 9.0);
    EXPECT_GE(h.quantile(0.0), 0.0);
}

TEST(HistogramQuantile, InterpolatesWithinASharedBucket)
{
    // 40 and 41 share the width-2 bucket [40, 42): the interpolated
    // quantile walks the bucket linearly and clamps at max().
    ASSERT_EQ(Histogram::bucketIndex(40), Histogram::bucketIndex(41));
    Histogram h;
    h.record(40);
    h.record(41);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 40.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 41.0);
    EXPECT_GE(h.quantile(0.01), 40.0);
}

TEST(HistogramQuantile, LargeValuesStayWithinRelativeError)
{
    Histogram h;
    const std::uint64_t big = std::uint64_t{3} << 40;
    h.recordN(big, 100);
    const double q99 = h.quantile(0.99);
    EXPECT_EQ(q99, static_cast<double>(big)); // clamped to max
    EXPECT_EQ(h.max(), big);
}

/** Deterministic pseudo-random sample stream (xorshift). */
std::uint64_t
nextSample(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

TEST(HistogramQuantile, LongTailOrdersP99P999AndMax)
{
    // 10k samples put ~10 of them past the p999 rank, so the extreme
    // tail is actually exercised: p999 sits between p99 and the max,
    // and the occasional spikes move it away from the body.
    Histogram h;
    std::uint64_t state = 0xfee1f1ee7ull;
    for (int i = 0; i < 10000; ++i) {
        // Long-tailed stream: mostly small values, occasional spikes.
        std::uint64_t v = nextSample(state) % 4096;
        if (i % 997 == 0)
            v += 1u << 22;
        h.record(v);
    }
    EXPECT_GE(h.quantile(0.999), h.quantile(0.99));
    EXPECT_LE(h.quantile(0.999), static_cast<double>(h.max()));
    EXPECT_GT(h.quantile(0.999), h.quantile(0.5));
}

TEST(HistogramQuantile, SmallPopulationTailIsExactMax)
{
    // Regression (PR 10): p999/p99 on counts below ~1/(1-q) used to
    // interpolate inside the top occupied bucket — a value up to the
    // ~6% bucket width away from any real sample. The target rank is
    // the last sample, whose exact value is max(): return it.
    Histogram h;
    h.record(1000);     // bucket [960, 1024): width 64
    h.record(5000);     // bucket [4864, 5120): width 256
    h.record(100000);   // wide bucket far from its low edge
    // 3 samples: p99 and p999 target rank 3 == count -> exact max.
    EXPECT_EQ(h.quantile(0.99), 100000.0);
    EXPECT_EQ(h.quantile(0.999), 100000.0);
    // p50 targets rank 2 (resolvable): interpolates in 5000's bucket.
    EXPECT_LT(h.quantile(0.5), 100000.0);
}

TEST(HistogramQuantile, SaturationRuleAtBucketEdges)
{
    // Exactly 1/(1-q) samples is the threshold: p99 of 100 samples
    // targets rank ceil(0.99*100) = 99 < 100 and must still resolve,
    // while 99 samples target ceil(0.99*99) = 99 == count -> max.
    Histogram resolved;
    for (std::uint64_t i = 0; i < 100; ++i)
        resolved.record(i < 99 ? 100 : 100000);
    EXPECT_FALSE(Histogram::quantileSaturated(100, 0.99));
    // Rank 99 is one of the 99 samples at 100, not the max spike.
    EXPECT_LT(resolved.quantile(0.99), 100000.0);

    Histogram saturated;
    for (std::uint64_t i = 0; i < 99; ++i)
        saturated.record(i < 98 ? 100 : 100000);
    EXPECT_TRUE(Histogram::quantileSaturated(99, 0.99));
    EXPECT_EQ(saturated.quantile(0.99), 100000.0);
}

TEST(HistogramQuantile, SaturationPredicateMatchesQuantile)
{
    EXPECT_TRUE(Histogram::quantileSaturated(0, 0.5));
    EXPECT_TRUE(Histogram::quantileSaturated(1, 0.0));
    EXPECT_TRUE(Histogram::quantileSaturated(1, 0.999));
    EXPECT_TRUE(Histogram::quantileSaturated(999, 0.999));
    EXPECT_FALSE(Histogram::quantileSaturated(1001, 0.999));
    EXPECT_FALSE(Histogram::quantileSaturated(2, 0.5));
    // q = 1 is always the max by definition and always "saturated".
    EXPECT_TRUE(Histogram::quantileSaturated(1000000, 1.0));
}

TEST(Histogram, ResetForgetsEverything)
{
    Histogram h;
    h.recordN(7, 3);
    h.record(1u << 20);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.quantile(0.99), 0.0);
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
        ASSERT_EQ(h.bucketCount(i), 0u);
}

} // namespace
} // namespace hoopnvm
