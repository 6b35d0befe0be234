/**
 * @file
 * Functional tests for the Table III workload suite: every structure
 * runs transactions on the native system and verifies against its
 * committed shadow, for both of the paper's item sizes. Also the run
 * driver's two orders, its transaction indices and its reject hook.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

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
    RunDriver driver(sys, makeWorkload("vector", smallParams(64)));
    for (int i = 0; i < 20; ++i)
        driver.wl(0).runTransaction(i);
    sys.finalize();
    ASSERT_TRUE(driver.wl(0).verify());

    // Smash a word of core 0's arena (vector items live right after
    // the size word's line).
    sys.nvm().pokeWord(kCacheLineSize + 128, 0xdeadbeef);
    EXPECT_FALSE(driver.wl(0).verify());
}

/** (core, index) of each transaction, in the order they ran. */
using TxLog = std::vector<std::pair<unsigned, std::uint64_t>>;

/** Calls the test's @p onTx(core, index), then idles (core + 1) x 100
 *  ticks, as each transaction. */
class ScriptedWorkload : public Workload
{
  public:
    using OnTx = std::function<void(unsigned, std::uint64_t)>;

    ScriptedWorkload(System &sys, CoreId core, OnTx onTx)
        : Workload(TxContext(sys, core, 1)), onTx_(std::move(onTx))
    {
    }

    const char *name() const override { return "scripted"; }
    void setup() override {}
    bool verify() const override { return true; }

    void
    runTransaction(std::uint64_t i) override
    {
        onTx_(ctx.core(), i);
        ctx.idle((ctx.core() + 1) * 100);
    }

  private:
    OnTx onTx_;
};

/** A two-core Native System driving ScriptedWorkloads. */
struct ScriptedRun
{
    explicit ScriptedRun(const ScriptedWorkload::OnTx &onTx)
        : driver(sys, [&](System &s, CoreId c) {
              return std::make_unique<ScriptedWorkload>(s, c, onTx);
          })
    {
    }

    System sys{wlConfig(), Scheme::Native};
    RunDriver driver;
};

TEST(RunDriver, MinClockPicksTheCoreFurthestBehindThenRoundsContinue)
{
    TxLog log;
    ScriptedRun run([&](unsigned c, std::uint64_t i) {
        log.emplace_back(c, i);
    });
    // Ties (both at 0, then both at 200) go to the lowest index; a core
    // with its quota done drops out (core 0 at 300, core 1 at 400).
    run.driver.runMinClock(3);
    // Rounds take the cores in index order. Each call's indices go on
    // from each core's count.
    run.driver.runRounds(1);
    run.driver.runMinClock(1);
    const TxLog want = {{0, 0}, {1, 0}, {0, 1}, {0, 2}, {1, 1},
                        {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}};
    EXPECT_EQ(log, want);
}

TEST(RunDriver, HookStopsTheRoundAndOnlyRejectsReachIt)
{
    // Core 0's second transaction runs throwAt.
    std::function<void()> throwAt = [] { throw TxRejected{}; };
    TxLog log;
    auto onTx = [&](unsigned c, std::uint64_t i) {
        log.emplace_back(c, i);
        if (c == 0 && i == 1)
            throwAt();
    };
    // A hook that says stop, after a reject or after a transaction that
    // returned, ends the run before core 1's second transaction.
    const TxLog want = {{0, 0}, {1, 0}, {0, 1}};

    TxLog calls;
    ScriptedRun(onTx).driver.runRounds(
        3, [&](unsigned c, const TxRejected *rj) {
            calls.emplace_back(c, rj != nullptr);
            return !rj;
        });
    EXPECT_EQ(log, want);
    const TxLog want_calls = {{0, false}, {1, false}, {0, true}};
    EXPECT_EQ(calls, want_calls);

    log.clear();
    throwAt = [] {};
    ScriptedRun(onTx).driver.runRounds(
        3, [&](unsigned, const TxRejected *) { return log.size() < 3; });
    EXPECT_EQ(log, want);

    throwAt = [] { throw TxRejected{}; };
    EXPECT_THROW(ScriptedRun(onTx).driver.runRounds(3), TxRejected);

    throwAt = [] { throw SimCrash{}; };
    auto carryOn = [](unsigned, const TxRejected *) { return true; };
    EXPECT_THROW(ScriptedRun(onTx).driver.runRounds(3, carryOn), SimCrash);
}

} // namespace
} // namespace hoopnvm
