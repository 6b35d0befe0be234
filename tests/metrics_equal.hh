/**
 * @file
 * gtest helpers that assert two runs produced the same RunMetrics,
 * field by field, so a failure names the field that moved.
 */

#ifndef HOOPNVM_TESTS_METRICS_EQUAL_HH
#define HOOPNVM_TESTS_METRICS_EQUAL_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/system.hh"

namespace hoopnvm
{

inline void
expectSummaryEqual(const LatencySummary &f, const LatencySummary &r,
                   const std::string &what)
{
    EXPECT_EQ(f.count, r.count) << what;
    EXPECT_EQ(f.p50Ns, r.p50Ns) << what;
    EXPECT_EQ(f.p95Ns, r.p95Ns) << what;
    EXPECT_EQ(f.p99Ns, r.p99Ns) << what;
    EXPECT_EQ(f.maxNs, r.maxNs) << what;
    EXPECT_EQ(f.meanNs, r.meanNs) << what;
}

inline void
expectMetricsEqual(const RunMetrics &f, const RunMetrics &r,
                   const std::string &what)
{
    EXPECT_EQ(f.transactions, r.transactions) << what;
    EXPECT_EQ(f.simTicks, r.simTicks) << what;
    EXPECT_EQ(f.txPerSecond, r.txPerSecond) << what;
    EXPECT_EQ(f.avgCriticalPathNs, r.avgCriticalPathNs) << what;
    EXPECT_EQ(f.nvmBytesWritten, r.nvmBytesWritten) << what;
    EXPECT_EQ(f.nvmBytesRead, r.nvmBytesRead) << what;
    EXPECT_EQ(f.bytesWrittenPerTx, r.bytesWrittenPerTx) << what;
    EXPECT_EQ(f.energyPj, r.energyPj) << what;
    EXPECT_EQ(f.llcMissRatio, r.llcMissRatio) << what;
    expectSummaryEqual(f.critPath, r.critPath, what + ".critPath");
    expectSummaryEqual(f.llcMiss, r.llcMiss, what + ".llcMiss");
    expectSummaryEqual(f.gcPause, r.gcPause, what + ".gcPause");
    expectSummaryEqual(f.scrubPause, r.scrubPause,
                       what + ".scrubPause");
    EXPECT_EQ(f.eccCorrectedWords, r.eccCorrectedWords) << what;
    EXPECT_EQ(f.uncorrectableReads, r.uncorrectableReads) << what;
    EXPECT_EQ(f.readRetries, r.readRetries) << what;
    EXPECT_EQ(f.retiredUnits, r.retiredUnits) << what;
    EXPECT_EQ(f.txRejected, r.txRejected) << what;
    EXPECT_EQ(f.degradedFraction, r.degradedFraction) << what;

    // Epoch ring: same number of samples, taken at the same ticks,
    // observing the same gauges.
    ASSERT_EQ(f.epochs.size(), r.epochs.size()) << what;
    for (std::size_t i = 0; i < f.epochs.size(); ++i) {
        const EpochSample &ef = f.epochs[i];
        const EpochSample &er = r.epochs[i];
        EXPECT_EQ(ef.at, er.at) << what << " epoch " << i;
        EXPECT_EQ(ef.mappingEntries, er.mappingEntries)
            << what << " epoch " << i;
        EXPECT_EQ(ef.structBytes, er.structBytes)
            << what << " epoch " << i;
        EXPECT_EQ(ef.backpressureStalls, er.backpressureStalls)
            << what << " epoch " << i;
        EXPECT_EQ(ef.inflightWrites, er.inflightWrites)
            << what << " epoch " << i;
        EXPECT_EQ(ef.retiredUnits, er.retiredUnits)
            << what << " epoch " << i;
        EXPECT_EQ(ef.correctedWords, er.correctedWords)
            << what << " epoch " << i;
        EXPECT_EQ(ef.degradedFraction, er.degradedFraction)
            << what << " epoch " << i;
        EXPECT_EQ(ef.txRejected, er.txRejected)
            << what << " epoch " << i;
    }
}

} // namespace hoopnvm

#endif // HOOPNVM_TESTS_METRICS_EQUAL_HH
