/**
 * @file
 * Distribution tests for the Zipfian generator (PR 10 bugfix sweep).
 *
 * Gray's closed-form sampler diverges as theta -> 1 (the exponent
 * alpha = 1/(1-theta) blows up and pow() underflows, collapsing draws
 * onto item 0), and the old generator rejected n == 1 and theta
 * outside (0, 1) outright. These tests pin the fixed behaviour: a
 * chi-squared-style check of empirical frequencies against the exact
 * p_i = i^-theta / zeta(n) on both the Gray path (theta = 0.99) and
 * the inverse-CDF path (theta = 1.0), the degenerate edges, and
 * renormalization when the item count changes between generators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/zipfian.hh"

namespace hoopnvm
{
namespace
{

/**
 * Chi-squared statistic of @p draws Zipfian samples against the
 * generator's own exact per-item probabilities.
 */
double
chiSquared(ZipfianGenerator &gen, std::uint64_t draws,
           std::vector<std::uint64_t> *counts_out = nullptr)
{
    std::vector<std::uint64_t> counts(gen.itemCount(), 0);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const std::uint64_t v = gen.next();
        EXPECT_LT(v, gen.itemCount());
        ++counts[v];
    }
    double chi2 = 0.0;
    for (std::uint64_t i = 0; i < gen.itemCount(); ++i) {
        const double expected =
            gen.itemProbability(i) * static_cast<double>(draws);
        const double diff = static_cast<double>(counts[i]) - expected;
        chi2 += diff * diff / expected;
    }
    if (counts_out)
        *counts_out = std::move(counts);
    return chi2;
}

TEST(Zipfian, ProbabilitiesSumToOne)
{
    for (const double theta : {0.0, 0.5, 0.99, 0.999, 1.0}) {
        ZipfianGenerator gen(64, theta, 1);
        double sum = 0.0;
        for (std::uint64_t i = 0; i < 64; ++i)
            sum += gen.itemProbability(i);
        EXPECT_NEAR(sum, 1.0, 1e-12) << "theta " << theta;
    }
}

TEST(Zipfian, GrayPathTracksTheExactDistribution)
{
    // The YCSB default: theta = 0.99 over 16 items, 100k seeded
    // draws. Gray's closed form is an *approximation* — items 0 and 1
    // are drawn with their exact probabilities, the tail follows the
    // continuous inverse — so a plain chi-squared against the exact
    // p_i sits in the low hundreds by design (measured ~212 here).
    // The bound guards against the theta->1 collapse bug, which sends
    // it past 10^5 (item 0 absorbs nearly every draw).
    ZipfianGenerator gen(16, 0.99, 12345);
    std::vector<std::uint64_t> counts;
    EXPECT_LT(chiSquared(gen, 100000, &counts), 1500.0);
    // The head probabilities are exact in Gray's method: pin them
    // tightly (~3 sigma of a 100k-draw binomial is ~0.4%).
    EXPECT_NEAR(static_cast<double>(counts[0]) / 100000,
                gen.itemProbability(0), 0.005);
    EXPECT_NEAR(static_cast<double>(counts[1]) / 100000,
                gen.itemProbability(1), 0.005);
    // And the empirical ranking stays monotone head-to-tail.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[4]);
    EXPECT_GT(counts[4], counts[15]);
}

TEST(Zipfian, CdfPathHandlesThetaOneExactly)
{
    // Regression: theta = 1.0 used to assert (and anything past
    // ~0.998 was numerically collapsed onto item 0 by pow()
    // underflow). The inverse-CDF path must match the exact harmonic
    // distribution, not over-favour item 0.
    ZipfianGenerator gen(16, 1.0, 999);
    std::vector<std::uint64_t> counts;
    EXPECT_LT(chiSquared(gen, 100000, &counts), 60.0);
    // Spot-check the singularity symptom directly: item 0's share is
    // 1/zeta(16) ~ 29.6%, nowhere near the collapsed ~100%.
    EXPECT_LT(static_cast<double>(counts[0]), 0.35 * 100000);
    EXPECT_GT(static_cast<double>(counts[0]), 0.25 * 100000);
}

TEST(Zipfian, NearOneThetaStaysOnExactPath)
{
    // theta = 0.999 crosses kGrayThetaMax and must be served by the
    // CDF table; the distribution still matches the exact p_i.
    ZipfianGenerator gen(32, 0.999, 777);
    EXPECT_LT(chiSquared(gen, 100000), 80.0);
}

TEST(Zipfian, SingleItemAlwaysDrawsZero)
{
    // Regression: n == 1 used to trip the n >= 2 assert.
    ZipfianGenerator gen(1, 0.99, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gen.next(), 0u);
    EXPECT_EQ(gen.itemProbability(0), 1.0);
}

TEST(Zipfian, UniformAtThetaZero)
{
    // theta = 0 is the uniform distribution; every item's probability
    // is 1/n and the sampler must cover the whole range.
    ZipfianGenerator gen(8, 0.0, 3);
    std::vector<std::uint64_t> counts;
    EXPECT_LT(chiSquared(gen, 80000, &counts), 40.0);
    for (std::uint64_t c : counts)
        EXPECT_GT(c, 0u);
}

TEST(Zipfian, RenormalizesWhenItemCountChanges)
{
    // Renormalization audit: a generator built for n = 64 after one
    // built for n = 8 (and vice versa) must use zeta for its own n —
    // construct-order independence rules out any stale shared state.
    ZipfianGenerator first8(8, 0.99, 11);
    ZipfianGenerator then64(64, 0.99, 11);
    ZipfianGenerator fresh64(64, 0.99, 11);
    ZipfianGenerator then8(8, 0.99, 11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(then64.next(), fresh64.next());
        EXPECT_EQ(first8.next(), then8.next());
    }
    // And the per-item probabilities differ across n (zeta really was
    // recomputed): P(0 | n=8) > P(0 | n=64).
    EXPECT_GT(ZipfianGenerator(8, 0.99, 1).itemProbability(0),
              ZipfianGenerator(64, 0.99, 1).itemProbability(0));
}

} // namespace
} // namespace hoopnvm
