/**
 * @file
 * Tests for the crash-point exploration engine: schedule JSON
 * round-trips, crash-during-recovery and GC-migration coverage for
 * every persistent scheme, checker validation against a deliberately
 * broken commit fence (which must yield a small, replayable
 * reproducer), and the one-pass sweep judging every point as a
 * standalone runSchedule() does.
 */

#include <gtest/gtest.h>

#include "check/crash_explorer.hh"

namespace hoopnvm
{
namespace
{

TEST(CrashSchedule, JsonRoundTrip)
{
    CrashSchedule s;
    s.scheme = Scheme::Lsm;
    s.workload = "btree";
    s.seed = 1234;
    s.numCores = 3;
    s.warmupTx = 7;
    s.runTx = 21;
    s.recoverThreads = 4;
    s.tornWrites = true;
    s.breakCommitFence = true;
    s.steps.push_back({CrashPointKind::GcStep, 17, 0});
    s.steps.push_back({CrashPointKind::Store, 3, 9});

    CrashSchedule r;
    std::string err;
    ASSERT_TRUE(CrashSchedule::fromJson(s.toJson(), &r, &err)) << err;
    EXPECT_EQ(r.scheme, s.scheme);
    EXPECT_EQ(r.workload, s.workload);
    EXPECT_EQ(r.seed, s.seed);
    EXPECT_EQ(r.numCores, s.numCores);
    EXPECT_EQ(r.warmupTx, s.warmupTx);
    EXPECT_EQ(r.runTx, s.runTx);
    EXPECT_EQ(r.recoverThreads, s.recoverThreads);
    EXPECT_EQ(r.tornWrites, s.tornWrites);
    EXPECT_EQ(r.breakCommitFence, s.breakCommitFence);
    ASSERT_EQ(r.steps.size(), 2u);
    EXPECT_EQ(r.steps[0].kind, CrashPointKind::GcStep);
    EXPECT_EQ(r.steps[0].countdown, 17u);
    EXPECT_EQ(r.steps[1].kind, CrashPointKind::Store);
    EXPECT_EQ(r.steps[1].recoveryCountdown, 9u);
}

TEST(CrashSchedule, RejectsMalformedInput)
{
    CrashSchedule r;
    std::string err;
    EXPECT_FALSE(CrashSchedule::fromJson("{\"scheme\": \"bogus\"}", &r,
                                         &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(CrashSchedule::fromJson("not json", &r, &err));
    EXPECT_FALSE(CrashSchedule::fromJson(
        "{\"steps\": [{\"kind\": \"warp\"}]}", &r, &err));
}

/** Per-scheme exploration of one boundary class. */
class ExplorerSchemes : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ExplorerSchemes, CrashDuringRecoveryIsSurvivable)
{
    ExploreOptions opt;
    opt.scheme = GetParam();
    opt.workload = "hashmap";
    opt.budget = 6;
    opt.kinds = {CrashPointKind::RecoveryStep};

    const ExploreReport rep = explore(opt);
    const unsigned k =
        static_cast<unsigned>(CrashPointKind::RecoveryStep);
    ASSERT_GT(rep.eventsProfiled[k], 0u)
        << schemeName(opt.scheme)
        << " recovery exposes no crash points";
    EXPECT_GT(rep.schedulesRun, 0u);
    EXPECT_GT(rep.recoveryCrashesFired, 0u)
        << schemeName(opt.scheme)
        << " never crashed inside recovery";
    EXPECT_TRUE(rep.violations.empty())
        << schemeName(opt.scheme) << ": "
        << rep.violations.front().detail;
}

TEST_P(ExplorerSchemes, GcMigrationCrashIsSurvivable)
{
    ExploreOptions opt;
    opt.scheme = GetParam();
    opt.workload = "hashmap";
    opt.budget = 6;
    opt.kinds = {CrashPointKind::GcStep};

    const ExploreReport rep = explore(opt);
    const unsigned k = static_cast<unsigned>(CrashPointKind::GcStep);
    ASSERT_GT(rep.eventsProfiled[k], 0u)
        << schemeName(opt.scheme)
        << " exposes no GC/checkpoint crash points";
    EXPECT_GT(rep.firedPerKind[k], 0u)
        << schemeName(opt.scheme) << " never crashed at a GC step";
    EXPECT_TRUE(rep.violations.empty())
        << schemeName(opt.scheme) << ": "
        << rep.violations.front().detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistentSchemes, ExplorerSchemes,
    ::testing::ValuesIn(kDurableSchemes),
    [](const auto &info) {
        std::string n = schemeName(info.param);
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(Explorer, HoopCleanSweepAllClasses)
{
    ExploreOptions opt;
    opt.scheme = Scheme::Hoop;
    opt.workload = "btree";
    opt.budget = 25;

    const ExploreReport rep = explore(opt);
    EXPECT_GT(rep.crashesFired, 0u);
    // Every class with events must have been scheduled.
    for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
        if (rep.eventsProfiled[k] > 0) {
            EXPECT_GT(rep.schedulesPerKind[k], 0u)
                << crashPointKindToken(static_cast<CrashPointKind>(k));
        }
    }
    EXPECT_TRUE(rep.violations.empty())
        << rep.violations.front().detail;
}

TEST(Explorer, BrokenCommitFenceYieldsReplayableReproducer)
{
    // The checker must catch a scheme that acknowledges commits before
    // the commit record is durable — and shrink the failure to a small
    // deterministic reproducer.
    ExploreOptions opt;
    opt.scheme = Scheme::Hoop;
    opt.workload = "vector";
    opt.budget = 10;
    opt.breakCommitFence = true; // implies torn writes
    opt.kinds = {CrashPointKind::Store, CrashPointKind::CommitRecord};

    const ExploreReport rep = explore(opt);
    ASSERT_FALSE(rep.violations.empty())
        << "broken commit fence escaped the checker";

    const Violation &v = rep.violations.front();
    EXPECT_LE(v.reproducer.steps.size(), 10u);
    EXPECT_LE(v.reproducer.warmupTx + v.reproducer.runTx, 50u)
        << "shrinking left an oversized reproducer";

    // The reproducer re-runs deterministically...
    ScheduleResult direct = runSchedule(v.reproducer);
    EXPECT_TRUE(direct.violated);

    // ...including after a JSON round-trip (the --replay path).
    CrashSchedule parsed;
    std::string err;
    ASSERT_TRUE(CrashSchedule::fromJson(v.reproducer.toJson(), &parsed,
                                        &err))
        << err;
    ScheduleResult replayed = runSchedule(parsed);
    EXPECT_TRUE(replayed.violated);
}

TEST(Explorer, MultiStepScheduleSurvivesRepeatedCrashes)
{
    // Several crash+recover cycles in one run, with a
    // crash-during-recovery in the middle: state must stay consistent
    // throughout.
    CrashSchedule sched;
    sched.scheme = Scheme::Hoop;
    sched.workload = "queue";
    sched.warmupTx = 5;
    sched.runTx = 20;
    sched.steps.push_back({CrashPointKind::Store, 40, 0});
    sched.steps.push_back({CrashPointKind::CommitRecord, 3, 2});
    sched.steps.push_back({CrashPointKind::Store, 25, 1});

    const ScheduleResult r = runSchedule(sched);
    EXPECT_TRUE(r.crashFired);
    EXPECT_TRUE(r.recoveryCrashFired);
    EXPECT_FALSE(r.violated) << r.detail;
}

/** One sweep configuration for the one-pass equivalence check. */
struct PassCase
{
    Scheme scheme;
    const char *workload;
    bool torn;
    bool brokenFence;
    double runtimeFaultProb;
    std::uint64_t budget;
    std::vector<CrashPointKind> kinds;
};

class OnePassSweep : public ::testing::TestWithParam<PassCase>
{
};

void
expectSameRules(const std::vector<OrderingRuleReport> &got,
                const std::vector<OrderingRuleReport> &want,
                const std::string &at)
{
    ASSERT_EQ(got.size(), want.size()) << at;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name) << at;
        EXPECT_EQ(got[i].fires, want[i].fires) << at << " " << got[i].name;
        EXPECT_EQ(got[i].depsChecked, want[i].depsChecked)
            << at << " " << got[i].name;
        EXPECT_EQ(got[i].violations, want[i].violations)
            << at << " " << got[i].name;
    }
}

TEST_P(OnePassSweep, JudgesEveryPointAsRunScheduleDoes)
{
    const PassCase &pc = GetParam();
    ExploreOptions opt;
    opt.scheme = pc.scheme;
    opt.workload = pc.workload;
    opt.seed = 7;
    opt.budget = pc.budget;
    opt.tornWrites = pc.torn;
    opt.breakCommitFence = pc.brokenFence;
    opt.runtimeFaultProb = pc.runtimeFaultProb;
    opt.kinds = pc.kinds;
    opt.ordering = true;
    std::vector<std::pair<CrashSchedule, ScheduleResult>> points;
    opt.outcome = [&points](const CrashSchedule &s,
                            const ScheduleResult &r) {
        points.emplace_back(s, r);
    };
    const ExploreReport rep = explore(opt);
    ASSERT_FALSE(points.empty());
    EXPECT_EQ(rep.pointsRerun, 0u);

    // The report that one runSchedule() per point gives: results
    // summed in (kind, index) order, each violation shrunk.
    ExploreReport want;
    CrashSchedule base = points.front().first;
    base.steps.clear();
    const ScheduleResult profile = runSchedule(base);
    EXPECT_EQ(rep.eventsProfiled, profile.events);
    mergeRuleReports(&want.orderingRules, profile.orderingRules);
    std::size_t vi = 0;
    for (const auto &[sched, got] : points) {
        const CrashStep &step = sched.steps.front();
        const std::string at = std::string(crashPointKindToken(step.kind)) +
                               " #" + std::to_string(step.countdown) + "/" +
                               std::to_string(step.recoveryCountdown);
        const ScheduleResult r = runSchedule(sched);
        EXPECT_EQ(got.events, r.events) << at;
        EXPECT_EQ(got.crashFired, r.crashFired) << at;
        EXPECT_EQ(got.recoveryCrashFired, r.recoveryCrashFired) << at;
        EXPECT_EQ(got.violated, r.violated) << at;
        EXPECT_EQ(got.detail, r.detail) << at;
        expectSameRules(got.orderingRules, r.orderingRules, at);
        EXPECT_EQ(got.orderingTraces.size(), r.orderingTraces.size())
            << at;

        const bool recovery_kind = step.recoveryCountdown > 0;
        const unsigned k = static_cast<unsigned>(
            recovery_kind ? CrashPointKind::RecoveryStep : step.kind);
        ++want.schedulesRun;
        ++want.schedulesPerKind[k];
        want.crashesFired += r.crashFired;
        want.recoveryCrashesFired += r.recoveryCrashFired;
        want.firedPerKind[k] +=
            recovery_kind ? r.recoveryCrashFired : r.crashFired;
        mergeRuleReports(&want.orderingRules, r.orderingRules);
        if (!r.violated)
            continue;
        ASSERT_LT(vi, rep.violations.size()) << at;
        std::string detail = r.detail;
        const CrashSchedule shrunk = shrink(sched, &detail);
        EXPECT_EQ(rep.violations[vi].detail, detail) << at;
        EXPECT_EQ(rep.violations[vi].reproducer.toJson(), shrunk.toJson())
            << at;
        ++vi;
    }
    EXPECT_EQ(rep.violations.size(), vi);
    EXPECT_EQ(rep.schedulesRun, want.schedulesRun);
    EXPECT_EQ(rep.crashesFired, want.crashesFired);
    EXPECT_EQ(rep.recoveryCrashesFired, want.recoveryCrashesFired);
    EXPECT_EQ(rep.schedulesPerKind, want.schedulesPerKind);
    EXPECT_EQ(rep.firedPerKind, want.firedPerKind);
    expectSameRules(rep.orderingRules, want.orderingRules, "sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, OnePassSweep,
    ::testing::Values(
        PassCase{Scheme::Hoop, "vector", false, false, 0.0, 20, {}},
        PassCase{Scheme::Hoop, "vector", true, false, 0.0, 20, {}},
        PassCase{Scheme::Hoop, "btree", false, false, 0.0, 20, {}},
        PassCase{Scheme::Hoop, "btree", true, false, 0.0, 20, {}},
        PassCase{Scheme::Hoop, "tpcc", false, false, 0.0, 20, {}},
        PassCase{Scheme::Hoop, "tpcc", true, false, 0.0, 20, {}},
        PassCase{Scheme::OptRedo, "vector", false, false, 0.0, 20, {}},
        PassCase{Scheme::OptRedo, "vector", true, false, 0.0, 20, {}},
        PassCase{Scheme::OptRedo, "btree", false, false, 0.0, 20, {}},
        PassCase{Scheme::OptRedo, "btree", true, false, 0.0, 20, {}},
        PassCase{Scheme::OptRedo, "tpcc", false, false, 0.0, 20, {}},
        PassCase{Scheme::OptRedo, "tpcc", true, false, 0.0, 20, {}},
        PassCase{Scheme::Osp, "vector", false, false, 0.0, 20, {}},
        PassCase{Scheme::Osp, "vector", true, false, 0.0, 20, {}},
        PassCase{Scheme::Osp, "btree", false, false, 0.0, 20, {}},
        PassCase{Scheme::Osp, "btree", true, false, 0.0, 20, {}},
        PassCase{Scheme::Osp, "tpcc", false, false, 0.0, 20, {}},
        PassCase{Scheme::Osp, "tpcc", true, false, 0.0, 20, {}},
        // Under the broken fence, commit-record points violate both
        // when judged at once and when judged with the pending update
        // applied, so the deferral's verdicts show.
        PassCase{Scheme::Hoop, "vector", true, true, 0.0, 20,
                 {CrashPointKind::Store, CrashPointKind::CommitRecord}},
        PassCase{Scheme::Hoop, "hashmap", false, false, 0.02, 20, {}}),
    [](const ::testing::TestParamInfo<PassCase> &info) {
        const PassCase &p = info.param;
        return std::string(schemeToken(p.scheme)) + "_" + p.workload +
               (p.torn ? "_torn" : "_clean") +
               (p.brokenFence ? "_broken_fence" : "") +
               (p.runtimeFaultProb > 0 ? "_media" : "");
    });

// Fixed torn-write schedules that each reproduced a real
// crash-consistency bug before it was fixed. One entry per fix:
//  - hoop/hashmap: a torn in-flight slice lowered the recovery
//    corruption floor to the block's openSeq and vetoed a fully
//    durable commit (fix: per-block corruption floor).
//  - hoop/btree: torn GC recycle headers lowered the floor to the GC
//    watermark and vetoed txs spanning the GC boundary (fix: only
//    media faults on the header line lower the floor).
//  - redo/hashmap: partially torn 128-byte log entries passed the
//    type/seq scan checks (fix: per-entry CRC + single-word
//    superblock).
//  - redo/queue: async checkpoint home-writes raced the log
//    truncation superblock write (fix: drain + settle first).
//  - lsm: GC home-migration writes raced the log truncation the same
//    way (fix: drain + settle first).
//  - lad: commit drain writes could tear even though LAD's
//    battery-backed ADR queues guarantee they complete (fix: settle
//    the drain at commit).
struct TornRegression
{
    Scheme scheme;
    const char *workload;
    std::uint64_t warmupTx;
    std::uint64_t runTx;
    CrashStep step;
};

class TornWriteRegressions
    : public ::testing::TestWithParam<TornRegression>
{
};

TEST_P(TornWriteRegressions, FixedScheduleStaysConsistent)
{
    const TornRegression &p = GetParam();
    CrashSchedule sched;
    sched.scheme = p.scheme;
    sched.workload = p.workload;
    sched.seed = 7;
    sched.warmupTx = p.warmupTx;
    sched.runTx = p.runTx;
    sched.tornWrites = true;
    sched.steps.push_back(p.step);

    const ScheduleResult r = runSchedule(sched);
    EXPECT_FALSE(r.violated) << r.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllFixedBugs, TornWriteRegressions,
    ::testing::Values(
        TornRegression{Scheme::Hoop, "hashmap", 10, 40,
                       {CrashPointKind::CommitRecord, 61, 0}},
        TornRegression{Scheme::Hoop, "btree", 10, 40,
                       {CrashPointKind::Store, 712, 0}},
        TornRegression{Scheme::Hoop, "btree", 10, 40,
                       {CrashPointKind::Store, 712, 1}},
        TornRegression{Scheme::OptRedo, "hashmap", 0, 40,
                       {CrashPointKind::Eviction, 1, 0}},
        TornRegression{Scheme::OptRedo, "queue", 10, 1,
                       {CrashPointKind::Store, 1, 0}},
        TornRegression{Scheme::Lsm, "queue", 5, 40,
                       {CrashPointKind::Eviction, 17, 0}},
        TornRegression{Scheme::Lsm, "tpcc", 2, 1,
                       {CrashPointKind::Store, 1, 0}},
        TornRegression{Scheme::Lad, "vector", 0, 1,
                       {CrashPointKind::CommitRecord, 1, 0}},
        TornRegression{Scheme::Lad, "hashmap", 10, 10,
                       {CrashPointKind::CommitRecord, 11, 0}}),
    [](const ::testing::TestParamInfo<TornRegression> &info) {
        return std::string(schemeToken(info.param.scheme)) + "_" +
               info.param.workload + "_" +
               std::to_string(info.index);
    });

} // namespace
} // namespace hoopnvm
