/**
 * @file
 * End-to-end integration: every workload runs on every scheme and
 * verifies; cross-scheme metric relationships reproduce the paper's
 * qualitative claims (Table I / Figs. 7-8 directions).
 */

#include <gtest/gtest.h>

#include "workloads/registry.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
intConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(64);
    cfg.oopBytes = miB(8);
    cfg.auxBytes = miB(64) + miB(8);
    return cfg;
}

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.valueBytes = 64;
    p.scale = 256;
    return p;
}

/** (scheme, workload) sweep: run and verify. */
class SchemeWorkloadMatrix
    : public ::testing::TestWithParam<
          std::tuple<Scheme, const char *>>
{
};

TEST_P(SchemeWorkloadMatrix, RunsAndVerifies)
{
    const auto [scheme, name] = GetParam();
    SystemConfig cfg = intConfig();
    System sys(cfg, scheme);
    const RunOutcome out =
        runWorkload(sys, makeWorkload(name, smallParams()), 40);
    EXPECT_TRUE(out.verified)
        << schemeName(scheme) << "/" << name;
    EXPECT_EQ(out.metrics.transactions, 80u);
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, SchemeWorkloadMatrix,
    ::testing::Combine(
        ::testing::Values(Scheme::Native, Scheme::Hoop, Scheme::OptRedo,
                          Scheme::OptUndo, Scheme::Osp, Scheme::Lsm,
                          Scheme::Lad),
        ::testing::Values("vector", "hashmap", "queue", "rbtree",
                          "btree", "ycsb", "tpcc")),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_" + std::get<1>(info.param);
    });

/** Run one workload on one scheme and return the metrics. */
RunMetrics
measure(Scheme scheme, const char *wl, std::uint64_t tx = 60)
{
    SystemConfig cfg = intConfig();
    System sys(cfg, scheme);
    const RunOutcome out =
        runWorkload(sys, makeWorkload(wl, smallParams()), tx);
    EXPECT_TRUE(out.verified) << schemeName(scheme) << "/" << wl;
    return out.metrics;
}

TEST(CrossScheme, NativeIsFastest)
{
    const RunMetrics native = measure(Scheme::Native, "hashmap");
    const RunMetrics hoop = measure(Scheme::Hoop, "hashmap");
    const RunMetrics redo = measure(Scheme::OptRedo, "hashmap");
    EXPECT_GE(native.txPerSecond, hoop.txPerSecond);
    EXPECT_GT(hoop.txPerSecond, redo.txPerSecond);
}

TEST(CrossScheme, HoopCriticalPathNearNative)
{
    const RunMetrics native = measure(Scheme::Native, "vector");
    const RunMetrics hoop = measure(Scheme::Hoop, "vector");
    const RunMetrics undo = measure(Scheme::OptUndo, "vector");
    // HOOP adds modest overhead over the ideal system (the paper's
    // full-scale transactions are larger, putting it at +24%; these
    // small vector transactions make the fixed commit write loom
    // larger)...
    EXPECT_LT(hoop.avgCriticalPathNs, native.avgCriticalPathNs * 8.0);
    // ...while undo logging's ordered flushes cost much more.
    EXPECT_GT(undo.avgCriticalPathNs, hoop.avgCriticalPathNs);
}

TEST(CrossScheme, LoggingWriteTrafficExceedsHoop)
{
    for (const char *wl : {"hashmap", "rbtree"}) {
        const RunMetrics hoop = measure(Scheme::Hoop, wl);
        const RunMetrics redo = measure(Scheme::OptRedo, wl);
        const RunMetrics undo = measure(Scheme::OptUndo, wl);
        EXPECT_GT(redo.bytesWrittenPerTx, hoop.bytesWrittenPerTx)
            << wl;
        EXPECT_GT(undo.bytesWrittenPerTx, hoop.bytesWrittenPerTx)
            << wl;
    }
}

TEST(CrossScheme, EnergyFollowsWriteTraffic)
{
    const RunMetrics hoop = measure(Scheme::Hoop, "btree");
    const RunMetrics redo = measure(Scheme::OptRedo, "btree");
    EXPECT_GT(redo.energyPj, hoop.energyPj);
}

TEST(CrashRecovery, WorkloadSurvivesCrashOnHoop)
{
    SystemConfig cfg = intConfig();
    System sys(cfg, Scheme::Hoop);
    RunDriver driver(sys, makeWorkload("hashmap", smallParams()));
    for (int i = 0; i < 60; ++i) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            driver.wl(c).runTransaction(i);
    }
    // Power failure with plenty of dirty state in the caches.
    sys.crash();
    sys.recover(4);
    for (unsigned c = 0; c < cfg.numCores; ++c)
        EXPECT_TRUE(driver.wl(c).verify()) << "core " << c;
}

TEST(CrashRecovery, HoopRecoveryTimeScalesWithThreads)
{
    auto build = [&]() {
        SystemConfig cfg = intConfig();
        auto sys = std::make_unique<System>(cfg, Scheme::Hoop);
        auto factory = makeWorkload("ycsb", smallParams());
        auto wl = factory(*sys, 0);
        wl->setup();
        for (int i = 0; i < 100; ++i)
            wl->runTransaction(i);
        sys->crash();
        return sys;
    };
    auto s1 = build();
    const Tick t1 = s1->recover(1);
    auto s8 = build();
    const Tick t8 = s8->recover(8);
    EXPECT_LE(t8, t1);
}

} // namespace
} // namespace hoopnvm
