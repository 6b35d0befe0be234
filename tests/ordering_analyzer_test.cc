/**
 * @file
 * End-to-end tests of the persistency-ordering analyzer over the real
 * simulator (analysis/order_harness.hh).
 *
 * Two halves:
 *  - clean runs: every persistent scheme, driven through a workload
 *    with GC/checkpoint/truncation activity, must finish with zero
 *    rule violations and zero dead rules — each declared rule both
 *    holds and is actually exercised;
 *  - seeded bugs: each debug knob reintroduces one real ordering bug
 *    (early commit ack, skipped drain fence, skipped undo entry) and
 *    the one rule that guards that protocol step must fire violations,
 *    while recovery-grade crash tests might still pass by luck. The
 *    skipped settle also covers the two retirement-bitmap fences,
 *    which only run with media-fault tolerance on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "analysis/order_harness.hh"
#include "analysis/ordering_tracker.hh"
#include "check/rig.hh"

namespace hoopnvm
{
namespace
{

std::uint64_t
ruleViolations(const OrderCheckReport &rep, const std::string &rule)
{
    for (const OrderingRuleReport &rr : rep.rules) {
        if (rr.name == rule)
            return rr.violations;
    }
    ADD_FAILURE() << "rule " << rule << " not declared";
    return 0;
}

OrderCheckReport
runScheme(Scheme s, void (*tweak)(OrderCheckOptions &) = nullptr)
{
    OrderCheckOptions opt;
    opt.scheme = s;
    opt.workload = "hashmap";
    if (tweak)
        tweak(opt);
    return runOrderCheck(opt);
}

TEST(CleanRun, EverySchemeHasZeroViolationsAndNoDeadRules)
{
    for (Scheme s : kDurableSchemes) {
        const OrderCheckReport rep = runScheme(s);
        EXPECT_TRUE(rep.verified) << schemeName(s);
        EXPECT_EQ(rep.totalViolations, 0u) << schemeName(s);
        EXPECT_TRUE(rep.deadRules.empty())
            << schemeName(s) << " dead rule: "
            << (rep.deadRules.empty() ? "" : rep.deadRules.front());
        EXPECT_FALSE(rep.rules.empty()) << schemeName(s);
    }
}

TEST(CleanRun, TornWriteInjectionStaysClean)
{
    // Arming the torn-write fault injector must not perturb rule
    // checking on a crash-free run.
    const OrderCheckReport rep = runScheme(
        Scheme::Hoop, [](OrderCheckOptions &o) { o.tornWrites = true; });
    EXPECT_EQ(rep.totalViolations, 0u);
    EXPECT_TRUE(rep.deadRules.empty());
}

TEST(SeededBug, HoopBrokenCommitFenceFiresCommitRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::Hoop, [](OrderCheckOptions &o) {
            o.breakCommitFence = true;
        });
    EXPECT_GT(ruleViolations(rep, "hoop-commit-record"), 0u);
    EXPECT_EQ(ruleViolations(rep, "hoop-gc-watermark"), 0u);
}

TEST(SeededBug, HoopSkippedGcFencesFireWatermarkRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::Hoop, [](OrderCheckOptions &o) {
            o.skipSettleFences = true;
        });
    EXPECT_GT(ruleViolations(rep, "hoop-gc-watermark"), 0u);
    EXPECT_EQ(ruleViolations(rep, "hoop-commit-record"), 0u);
}

TEST(SeededBug, RedoEarlyAckFiresCommitRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::OptRedo, [](OrderCheckOptions &o) {
            o.earlyCommitAck = true;
        });
    EXPECT_GT(ruleViolations(rep, "redo-commit-record"), 0u);
    EXPECT_EQ(ruleViolations(rep, "redo-log-truncate"), 0u);
}

TEST(SeededBug, RedoSkippedDrainFiresTruncateRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::OptRedo, [](OrderCheckOptions &o) {
            o.skipSettleFences = true;
        });
    EXPECT_GT(ruleViolations(rep, "redo-log-truncate"), 0u);
    EXPECT_EQ(ruleViolations(rep, "redo-commit-record"), 0u);
}

TEST(SeededBug, UndoEarlyAckFiresCommitRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::OptUndo, [](OrderCheckOptions &o) {
            o.earlyCommitAck = true;
        });
    EXPECT_GT(ruleViolations(rep, "undo-commit-record"), 0u);
}

TEST(SeededBug, UndoSkippedLogFiresWriteAheadRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::OptUndo, [](OrderCheckOptions &o) {
            o.skipUndoLog = true;
        });
    EXPECT_GT(ruleViolations(rep, "undo-home-write"), 0u);
    EXPECT_EQ(ruleViolations(rep, "undo-commit-record"), 0u);
}

TEST(SeededBug, LsmEarlyAckFiresCommitRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::Lsm, [](OrderCheckOptions &o) {
            o.earlyCommitAck = true;
        });
    EXPECT_GT(ruleViolations(rep, "lsm-commit-record"), 0u);
}

TEST(SeededBug, LsmSkippedDrainFiresTruncateRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::Lsm, [](OrderCheckOptions &o) {
            o.skipSettleFences = true;
        });
    EXPECT_GT(ruleViolations(rep, "lsm-log-truncate"), 0u);
    EXPECT_EQ(ruleViolations(rep, "lsm-commit-record"), 0u);
}

TEST(SeededBug, OspEarlyAckFiresFlipRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::Osp, [](OrderCheckOptions &o) {
            o.earlyCommitAck = true;
        });
    EXPECT_GT(ruleViolations(rep, "osp-flip-record"), 0u);
}

TEST(SeededBug, LadSkippedDrainFiresCommitDrainRule)
{
    const OrderCheckReport rep =
        runScheme(Scheme::Lad, [](OrderCheckOptions &o) {
            o.skipSettleFences = true;
        });
    EXPECT_GT(ruleViolations(rep, "lad-commit-drain"), 0u);
}

/**
 * Run @p s on the checkers' machine with media tolerance on and the
 * runtime-fault battery installed, so the scrubber and allocators
 * retire bad units, and report @p rule's outcome.
 */
OrderingRuleReport
retireRule(Scheme s, const std::string &rule, bool skipSettleFences)
{
    SystemConfig cfg = smallCheckConfig(2, 42);
    cfg.ft.enabled = true;
    cfg.ft.scrubPeriod = cfg.gcPeriod;
    cfg.debugSkipSettleFences = skipSettleFences;
    CheckRig rig(cfg, s, "vector", false, "");
    rig.runRounds(0, 10);
    rig.installRuntimeFaults(0.05, 0);
    OrderingTracker tracker;
    rig.sys().armOrdering(&tracker);
    rig.runRounds(10, 60);
    rig.sys().armOrdering(nullptr);
    for (const OrderingRuleReport &rr : tracker.ruleReports()) {
        if (rr.name == rule)
            return rr;
    }
    ADD_FAILURE() << "rule " << rule << " not declared";
    return {};
}

TEST(SeededBug, SkippedRetireFencesFireBitmapRules)
{
    const std::pair<Scheme, const char *> cases[] = {
        {Scheme::Hoop, "hoop-retire-bitmap"},
        {Scheme::OptRedo, "log-retire-bitmap"},
    };
    for (const auto &[s, rule] : cases) {
        const OrderingRuleReport bug = retireRule(s, rule, true);
        EXPECT_GT(bug.fires, 0u) << rule;
        EXPECT_EQ(bug.violations, bug.fires) << rule;
        EXPECT_EQ(retireRule(s, rule, false).violations, 0u) << rule;
    }
}

} // namespace
} // namespace hoopnvm
