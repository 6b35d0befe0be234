/**
 * @file
 * Tests for the bench driver: CellRunner must produce exactly the
 * same per-cell RunMetrics at any job count as a serial `-j1` run
 * (each cell owns a fully independent System), and the bench flags and
 * environment variables must resolve as documented.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/host_profiler.hh"

namespace hoopnvm
{
namespace
{

using bench::CellRunner;

// Small but real scheme x workload matrix: enough cells to actually
// exercise the pool, small enough to finish in a couple of seconds.
struct MatrixCell
{
    Scheme scheme;
    const char *workload;
};

std::vector<MatrixCell>
matrix()
{
    return {{Scheme::Hoop, "vector"},   {Scheme::Hoop, "queue"},
            {Scheme::Native, "vector"}, {Scheme::OptRedo, "hashmap"},
            {Scheme::OptUndo, "queue"}, {Scheme::Lad, "vector"}};
}

std::vector<RunMetrics>
runCells(unsigned jobs, bool fast_path = true)
{
    SystemConfig cfg = bench::paperConfig();
    cfg.fastPath = fast_path;
    WorkloadParams params = bench::paperParams(64);
    params.scale = 256;

    CellRunner runner(jobs);
    for (const MatrixCell &c : matrix()) {
        runner.add(std::string(schemeName(c.scheme)) + "/" + c.workload,
                   c.scheme, c.workload, params, cfg,
                   /*tx_per_core=*/20);
    }
    runner.run();
    std::vector<RunMetrics> out;
    for (std::size_t i = 0; i < runner.cells(); ++i)
        out.push_back(runner.metrics(i));
    return out;
}

void
expectIdenticalSummary(const LatencySummary &a, const LatencySummary &b,
                       const char *which)
{
    SCOPED_TRACE(which);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.p50Ns, b.p50Ns);
    EXPECT_EQ(a.p95Ns, b.p95Ns);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
    EXPECT_EQ(a.p999Ns, b.p999Ns);
    EXPECT_EQ(a.maxNs, b.maxNs);
    EXPECT_EQ(a.meanNs, b.meanNs);
}

void
expectIdenticalMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_EQ(a.txPerSecond, b.txPerSecond);
    EXPECT_EQ(a.avgCriticalPathNs, b.avgCriticalPathNs);
    EXPECT_EQ(a.nvmBytesWritten, b.nvmBytesWritten);
    EXPECT_EQ(a.nvmBytesRead, b.nvmBytesRead);
    EXPECT_EQ(a.bytesWrittenPerTx, b.bytesWrittenPerTx);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.llcMissRatio, b.llcMissRatio);
    // Histograms must merge to the same quantiles at any job count.
    expectIdenticalSummary(a.critPath, b.critPath, "critPath");
    expectIdenticalSummary(a.llcMiss, b.llcMiss, "llcMiss");
    expectIdenticalSummary(a.gcPause, b.gcPause, "gcPause");
    // And the epoch sampler must fire at the same simulated ticks.
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        SCOPED_TRACE("epoch " + std::to_string(i));
        EXPECT_EQ(a.epochs[i].at, b.epochs[i].at);
        EXPECT_EQ(a.epochs[i].mappingEntries,
                  b.epochs[i].mappingEntries);
        EXPECT_EQ(a.epochs[i].structBytes, b.epochs[i].structBytes);
        EXPECT_EQ(a.epochs[i].backpressureStalls,
                  b.epochs[i].backpressureStalls);
        EXPECT_EQ(a.epochs[i].inflightWrites,
                  b.epochs[i].inflightWrites);
    }
}

// The acceptance property of the whole harness: per-cell metrics are
// bit-identical whether cells run serially or across a pool.
TEST(CellRunner, ParallelMatchesSerialExactly)
{
    const std::vector<RunMetrics> serial = runCells(1);
    const std::vector<RunMetrics> parallel = runCells(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        // Not vacuous: every committed tx lands in the histogram.
        EXPECT_EQ(serial[i].critPath.count, serial[i].transactions);
        EXPECT_GT(serial[i].critPath.count, 0u);
        expectIdenticalMetrics(serial[i], parallel[i]);
    }
}

// The same property must hold on both simulation engines: the batched
// fast path (the default every bench runs on) and the word-at-a-time
// reference engine. Cross-engine equality is fastpath_equiv_test's
// job; here each engine must merely be deterministic under the pool.
TEST(CellRunner, ParallelMatchesSerialOnBothEngines)
{
    for (const bool fast : {true, false}) {
        SCOPED_TRACE(fast ? "fastPath" : "reference");
        const std::vector<RunMetrics> serial = runCells(1, fast);
        const std::vector<RunMetrics> parallel = runCells(4, fast);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            expectIdenticalMetrics(serial[i], parallel[i]);
        }
    }
}

// And so is a re-run at the same job count (seeds are per-cell).
TEST(CellRunner, ParallelRunIsRepeatable)
{
    const std::vector<RunMetrics> a = runCells(3);
    const std::vector<RunMetrics> b = runCells(3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdenticalMetrics(a[i], b[i]);
    }
}

TEST(CellRunner, RunsEveryCellExactlyOnce)
{
    CellRunner runner(4);
    std::atomic<int> counts[8] = {};
    for (int i = 0; i < 8; ++i) {
        runner.add("cell" + std::to_string(i),
                   [&counts, i](RunMetrics &) { ++counts[i]; });
    }
    EXPECT_EQ(runner.cells(), 8u);
    runner.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(counts[i].load(), 1);
    EXPECT_EQ(runner.label(3), "cell3");
}

unsigned
jobsFromFlags(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return bench::Bench(static_cast<int>(args.size()),
                        const_cast<char **>(args.data()), "flags", "",
                        bench::paperConfig(), 0)
        .jobs();
}

TEST(CellRunner, JobFlagParsing)
{
    EXPECT_EQ(jobsFromFlags({"-j4"}), 4u);
    EXPECT_EQ(jobsFromFlags({"-j", "7"}), 7u);
    // No -jN: one worker per hardware thread.
    EXPECT_GE(jobsFromFlags({}), 1u);
    EXPECT_EQ(CellRunner(2).jobs(), 2u);
    // --profile after -jN still enables profiling.
    EXPECT_EQ(jobsFromFlags({"-j4", "--profile"}), 4u);
    EXPECT_TRUE(HostProfiler::enabled());
}

// Anything but -jN / -j N (N >= 1) and --profile is a usage error,
// reported before a single cell runs.
TEST(CellRunnerDeathTest, BadFlagsExitWithUsage)
{
    for (const std::vector<const char *> &bad :
         std::vector<std::vector<const char *>>{{"--profle"},
                                                {"-j", "four"},
                                                {"-j0"},
                                                {"-j"},
                                                {"-j4x"},
                                                {"--help"},
                                                {"-j2", "extra"}}) {
        SCOPED_TRACE(bad.back());
        EXPECT_EXIT(jobsFromFlags(bad), ::testing::ExitedWithCode(2),
                    "usage: bench \\[-jN");
    }
}

TEST(CellRunner, TxPerCoreEnvOverride)
{
    ::setenv("HOOP_BENCH_TX", "5", 1);
    EXPECT_EQ(bench::benchTxPerCore(), 5u);
    EXPECT_EQ(bench::benchTxPerCore(250), 5u);
    // Set but not a positive count: exit 2, as a bad flag does.
    for (const char *bad : {"", "0", "-3", "many", "10x", "1e3", " 5"}) {
        SCOPED_TRACE(std::string("HOOP_BENCH_TX=") + bad);
        ::setenv("HOOP_BENCH_TX", bad, 1);
        EXPECT_EXIT(bench::benchTxPerCore(250),
                    ::testing::ExitedWithCode(2), "bad HOOP_BENCH_TX");
    }
    ::unsetenv("HOOP_BENCH_TX");
    EXPECT_EQ(bench::benchTxPerCore(), bench::kTxPerCore);
    EXPECT_EQ(bench::benchTxPerCore(250), 250u);
}

} // namespace
} // namespace hoopnvm
