/**
 * @file
 * Functional tests for the Table III workload suite: every structure
 * runs transactions on the native system and verifies against its
 * committed shadow, for both of the paper's item sizes.
 */

#include <gtest/gtest.h>

#include "metrics_equal.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
wlConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(64);
    cfg.oopBytes = miB(8);
    cfg.auxBytes = miB(64) + miB(8);
    return cfg;
}

WorkloadParams
smallParams(std::size_t value_bytes)
{
    WorkloadParams p;
    p.valueBytes = value_bytes;
    p.scale = 256;
    return p;
}

/** name x valueBytes sweep. */
class WorkloadSweep
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::size_t>>
{
};

TEST_P(WorkloadSweep, RunsAndVerifiesOnNative)
{
    const auto [name, bytes] = GetParam();
    SystemConfig cfg = wlConfig();
    System sys(cfg, Scheme::Native);
    const RunOutcome out =
        runWorkload(sys, makeWorkload(name, smallParams(bytes)), 50);
    EXPECT_TRUE(out.verified) << name;
    EXPECT_EQ(out.metrics.transactions, 100u); // 2 cores x 50
    EXPECT_GT(out.metrics.simTicks, 0u);
    EXPECT_GT(out.metrics.avgCriticalPathNs, 0.0);
}

TEST_P(WorkloadSweep, RunsAndVerifiesOnHoop)
{
    const auto [name, bytes] = GetParam();
    SystemConfig cfg = wlConfig();
    System sys(cfg, Scheme::Hoop);
    const RunOutcome out =
        runWorkload(sys, makeWorkload(name, smallParams(bytes)), 50);
    EXPECT_TRUE(out.verified) << name;
    EXPECT_GT(out.metrics.nvmBytesWritten, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TableThree, WorkloadSweep,
    ::testing::Combine(::testing::Values("vector", "hashmap", "queue",
                                         "rbtree", "btree", "ycsb",
                                         "tpcc"),
                       ::testing::Values(std::size_t{64},
                                         std::size_t{1024})),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "B";
    });

TEST(WorkloadSuite, DeterministicAcrossRuns)
{
    SystemConfig cfg = wlConfig();
    auto run = [&]() {
        System sys(cfg, Scheme::Hoop);
        return runWorkload(sys, makeWorkload("ycsb", smallParams(64)),
                           30);
    };
    const RunOutcome a = run();
    const RunOutcome b = run();
    EXPECT_EQ(a.metrics.simTicks, b.metrics.simTicks);
    EXPECT_EQ(a.metrics.nvmBytesWritten, b.metrics.nvmBytesWritten);
}

/** Tree workloads past a full shadow: scale 16 gives a key space of
 *  64 and inserts stop at 32 committed keys, so at least 268 of each
 *  core's 300 transactions take the update pick. */
class FullTreeShadow : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FullTreeShadow, UpdatesVerifyAndRepeat)
{
    WorkloadParams p = smallParams(64);
    p.scale = 16;
    for (Scheme scheme : {Scheme::Native, Scheme::Hoop}) {
        auto run = [&]() {
            System sys(wlConfig(), scheme);
            return runWorkload(sys, makeWorkload(GetParam(), p), 300);
        };
        const RunOutcome a = run();
        const RunOutcome b = run();
        const std::string what =
            std::string(GetParam()) + " on " + schemeName(scheme);
        EXPECT_TRUE(a.verified) << what;
        EXPECT_EQ(a.metrics.transactions, 600u) << what;
        expectMetricsEqual(a.metrics, b.metrics, what);
    }
}

INSTANTIATE_TEST_SUITE_P(Trees, FullTreeShadow,
                         ::testing::Values("btree", "rbtree"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(WorkloadSuite, PerCoreDataIsDisjoint)
{
    // Two cores run the same workload; verification would fail if
    // their arenas overlapped.
    SystemConfig cfg = wlConfig();
    System sys(cfg, Scheme::Native);
    const RunOutcome out =
        runWorkload(sys, makeWorkload("hashmap", smallParams(64)), 100);
    EXPECT_TRUE(out.verified);
}

TEST(WorkloadSuite, VerifyCatchesCorruption)
{
    // Corrupting committed home data after a run must fail verify.
    SystemConfig cfg = wlConfig();
    System sys(cfg, Scheme::Native);
    auto factory = makeWorkload("vector", smallParams(64));
    std::vector<std::unique_ptr<Workload>> wls;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        wls.push_back(factory(sys, c));
        wls.back()->setup();
    }
    for (int i = 0; i < 20; ++i)
        wls[0]->runTransaction(i);
    sys.finalize();
    ASSERT_TRUE(wls[0]->verify());

    // Smash a word of core 0's arena (vector items live right after
    // the size word's line).
    sys.nvm().pokeWord(kCacheLineSize + 128, 0xdeadbeef);
    EXPECT_FALSE(wls[0]->verify());
}

} // namespace
} // namespace hoopnvm
