/**
 * @file
 * Differential harness for the execution-only knobs. Every run with
 * cfg.fastPath = true (the same-line word memo) must be
 * *bit-identical* to the reference engine with cfg.fastPath = false,
 * and arming the tracer and the host
 * profiler must not change a run either — they are execution-strategy
 * changes, not model changes.
 *
 * "Bit-identical" is checked at full depth over the scheme × workload
 * matrix: every counter and histogram bucket of every component
 * (system, hierarchy, each cache, controller, NVM device), the epoch
 * sample ring including sample ticks, and all RunMetrics fields.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/host_profiler.hh"
#include "hoop/hoop_controller.hh"
#include "metrics_equal.hh"
#include "sim/system.hh"
#include "stats/histogram.hh"
#include "stats/stat_set.hh"
#include "stats/trace.hh"
#include "workloads/registry.hh"

using namespace hoopnvm;

namespace
{

/** Small machine that still exercises evictions, GC and sampling. */
SystemConfig
testConfig(bool fast_path)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.cache.l1Size = kiB(4);
    cfg.cache.l2Size = kiB(16);
    cfg.cache.llcSize = kiB(32);
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(20);
    cfg.mappingTableBytes = kiB(256);
    cfg.evictionBufferBytes = kiB(32);
    cfg.oopBlockBytes = kiB(256);
    cfg.gcPeriod = nsToTicks(2e5);
    cfg.epochSamplePeriod = nsToTicks(5e3);
    cfg.epochRingCapacity = 64;
    cfg.fastPath = fast_path;
    return cfg;
}

void
expectStatsEqual(const StatSet &fast, const StatSet &ref,
                 const std::string &what)
{
    ASSERT_EQ(fast.counters().size(), ref.counters().size()) << what;
    for (const auto &kv : fast.counters()) {
        ASSERT_TRUE(ref.counters().contains(kv.first))
            << what << "." << kv.first;
        EXPECT_EQ(kv.second.value(),
                  ref.counters().at(kv.first).value())
            << what << "." << kv.first;
    }
    ASSERT_EQ(fast.histograms().size(), ref.histograms().size())
        << what;
    for (const auto &kv : fast.histograms()) {
        ASSERT_TRUE(ref.histograms().contains(kv.first))
            << what << "." << kv.first;
        const Histogram &hf = kv.second;
        const Histogram &hr = ref.histograms().at(kv.first);
        EXPECT_EQ(hf.count(), hr.count()) << what << "." << kv.first;
        EXPECT_EQ(hf.sum(), hr.sum()) << what << "." << kv.first;
        EXPECT_EQ(hf.min(), hr.min()) << what << "." << kv.first;
        EXPECT_EQ(hf.max(), hr.max()) << what << "." << kv.first;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
            ASSERT_EQ(hf.bucketCount(i), hr.bucketCount(i))
                << what << "." << kv.first << " bucket " << i;
        }
    }
}

/** Run one cell (scheme × workload × engine) to completion. */
struct CellResult
{
    RunMetrics metrics;
    bool verified = false;
    std::unique_ptr<System> sys; // kept alive for stat comparison
};

/** Transactions per core and value size of one cell. */
struct CellShape
{
    std::uint64_t txPerCore = 100;
    std::uint64_t valueBytes = 128;
};

CellResult
runCell(Scheme scheme, const std::string &workload, bool fast_path,
        SystemConfig cfg, CellShape shape = {})
{
    cfg.fastPath = fast_path;
    WorkloadParams p;
    p.valueBytes = shape.valueBytes;
    p.scale = 512;
    CellResult out;
    out.sys = std::make_unique<System>(cfg, scheme);
    const RunOutcome o = runWorkload(*out.sys, makeWorkload(workload, p),
                                     shape.txPerCore);
    out.metrics = o.metrics;
    out.verified = o.verified;
    return out;
}

/** Two runs of one cell must agree on every simulated quantity. */
void
expectSameRun(const CellResult &a, const CellResult &b, Scheme scheme,
              const std::string &what)
{
    EXPECT_TRUE(a.verified) << what;
    EXPECT_TRUE(b.verified) << what;

    expectMetricsEqual(a.metrics, b.metrics, what);

    System &sa = *a.sys;
    System &sb = *b.sys;
    EXPECT_EQ(sa.committedTx(), sb.committedTx()) << what;
    EXPECT_EQ(sa.criticalPathSum(), sb.criticalPathSum()) << what;
    EXPECT_EQ(sa.minClock(), sb.minClock()) << what;
    EXPECT_EQ(sa.maxClock(), sb.maxClock()) << what;
    expectStatsEqual(sa.stats(), sb.stats(), what + ".system");
    expectStatsEqual(sa.caches().stats(), sb.caches().stats(),
                     what + ".hierarchy");
    expectStatsEqual(sa.caches().llc().stats(),
                     sb.caches().llc().stats(), what + ".llc");
    for (unsigned c = 0; c < sa.config().numCores; ++c) {
        expectStatsEqual(sa.caches().l1(c).stats(),
                         sb.caches().l1(c).stats(),
                         what + ".l1." + std::to_string(c));
        expectStatsEqual(sa.caches().l2(c).stats(),
                         sb.caches().l2(c).stats(),
                         what + ".l2." + std::to_string(c));
    }
    expectStatsEqual(sa.controller().stats(), sb.controller().stats(),
                     what + ".controller");
    if (scheme == Scheme::Hoop) {
        expectStatsEqual(
            static_cast<HoopController &>(sa.controller()).gc().stats(),
            static_cast<HoopController &>(sb.controller()).gc().stats(),
            what + ".gc");
    }
    EXPECT_EQ(sa.nvm().bytesWritten(), sb.nvm().bytesWritten()) << what;
    EXPECT_EQ(sa.nvm().bytesRead(), sb.nvm().bytesRead()) << what;
}

void
compareCell(Scheme scheme, const std::string &workload,
            const SystemConfig &cfg, CellShape shape = {})
{
    const std::string what =
        std::string(schemeName(scheme)) + "/" + workload;
    const CellResult fast = runCell(scheme, workload, true, cfg, shape);
    const CellResult ref = runCell(scheme, workload, false, cfg, shape);
    expectSameRun(fast, ref, scheme, what);
}

} // namespace

TEST(FastPathEquivalence, AllSchemesTableIIIWorkloads)
{
    for (const char *w : kTableIIIWorkloads) {
        for (Scheme s : kAllSchemes)
            compareCell(s, w, testConfig(true));
    }
}

// 1 KB values: the seq-scan role reads whole items through readBytes
// and the writer roles write them through writeBytes, 16 lines of
// eight words each, so the word memo serves seven of every eight of
// those accesses.
TEST(FastPathEquivalence, AllSchemesInterference)
{
    for (Scheme s : kAllSchemes)
        compareCell(s, "interference", testConfig(true),
                    {.txPerCore = 50, .valueBytes = 1024});
}

// Media-fault tolerance on: the scrub passes the polls start and the
// ECC/retry counters must stay bit-identical too. HOOP plus one log
// baseline cover the two scrub implementations.
TEST(FastPathEquivalence, FaultToleranceScrubPath)
{
    SystemConfig cfg = testConfig(true);
    cfg.ft.enabled = true;
    cfg.ft.scrubPeriod = nsToTicks(50e3);
    for (Scheme s : {Scheme::Hoop, Scheme::OptRedo})
        compareCell(s, "vector", cfg);
}

// GC disabled: allocation backpressure runs GC on demand inside the
// store path, between memoized word stores, instead of via maintenance.
TEST(FastPathEquivalence, OnDemandGcPath)
{
    SystemConfig cfg = testConfig(true);
    cfg.gcEnabled = false;
    compareCell(Scheme::Hoop, "vector", cfg);
}

// Tracing and host profiling only observe a run: arming both must
// leave every simulated quantity of a HOOP and an Opt-Redo cell
// unchanged. The profiler has no off switch, so it stays on for the
// rest of the binary — harmless, since that is what this test proves.
TEST(ExecutionOnlyKnobs, TraceAndProfilerLeaveRunsUnchanged)
{
    Trace::setPath(""); // off even when HOOP_TRACE is set
    const SystemConfig cfg = testConfig(true);
    const Scheme schemes[] = {Scheme::Hoop, Scheme::OptRedo};
    std::vector<CellResult> plain;
    for (Scheme s : schemes)
        plain.push_back(runCell(s, "hashmap", true, cfg));

    Trace::setPath(::testing::TempDir() + "fastpath_equiv_trace.json");
    HostProfiler::enable();
    for (std::size_t i = 0; i < std::size(schemes); ++i) {
        const CellResult observed = runCell(schemes[i], "hashmap", true, cfg);
        expectSameRun(observed, plain[i], schemes[i],
                      std::string(schemeName(schemes[i])) + " traced");
    }
    Trace::setPath("");
    Trace::clearForTest();
}
