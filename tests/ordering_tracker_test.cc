/**
 * @file
 * Unit tests for the persistency-ordering tracker
 * (analysis/ordering_tracker.hh): each rule kind's pass/fail boundary,
 * minDeps enforcement, dependency-group consumption, the redundant
 * settle / in-flight overwrite counters, dead-rule reporting and the
 * crash reset.
 *
 * The tracker is driven directly through its NvmWriteObserver
 * interface — no simulator is built, which pins down the contract
 * each controller integration relies on. Seeded random streams also
 * drive it beside NaiveTracker, the simpler algorithm it replaced,
 * and every report must match after every step.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ordering_tracker.hh"
#include "common/rng.hh"

namespace hoopnvm
{
namespace
{

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;

TEST(DurableByAck, PassesWhenAckCoversCompletion)
{
    OrderingTracker t;
    t.rule("commit").requiresDurable("the commit record");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("commit", 7);
    t.trigger("commit", 7, /*ack=*/100);

    EXPECT_EQ(t.totalViolations(), 0u);
    const auto reps = t.ruleReports();
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].fires, 1u);
    EXPECT_EQ(reps[0].depsChecked, 1u);
}

TEST(DurableByAck, FlagsAckBeforeCompletion)
{
    OrderingTracker t;
    t.rule("commit").requiresDurable("the commit record");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("commit", 7);
    t.trigger("commit", 7, /*ack=*/99);

    EXPECT_EQ(t.totalViolations(), 1u);
    ASSERT_EQ(t.violations().size(), 1u);
    EXPECT_EQ(t.violations()[0].rule, "commit");
}

TEST(SettledAtTrigger, PassesAfterFence)
{
    OrderingTracker t;
    t.rule("truncate").requiresSettled("retired log entries");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("truncate", 0);
    t.onSettle(100); // fence drains the write
    t.trigger("truncate", 0);

    EXPECT_EQ(t.totalViolations(), 0u);
}

TEST(SettledAtTrigger, FlagsInFlightDependency)
{
    OrderingTracker t;
    t.rule("truncate").requiresSettled("retired log entries");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("truncate", 0);
    t.onSettle(99); // fence too early: completion is 100
    t.trigger("truncate", 0);

    EXPECT_EQ(t.totalViolations(), 1u);
}

TEST(IssuedBeforeTrigger, MinDepsEnforcesPresence)
{
    OrderingTracker t;
    t.rule("wal").requiresIssued("the line's undo entry");

    // No dependency issued: the write-ahead contract is broken.
    t.trigger("wal", 3, 0, /*minDeps=*/1, /*consume=*/false);
    EXPECT_EQ(t.totalViolations(), 1u);

    // With the entry issued first, the same trigger passes.
    t.onTimedWrite(kB, 64, 10, 50);
    t.addDep("wal", 3);
    t.trigger("wal", 3, 0, /*minDeps=*/1, /*consume=*/false);
    EXPECT_EQ(t.totalViolations(), 1u);
}

TEST(Trigger, ConsumeRetiresTheGroup)
{
    OrderingTracker t;
    t.rule("commit").requiresDurable("the commit record");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("commit", 1);
    t.trigger("commit", 1, /*ack=*/100); // consumes group 1

    // Re-triggering the consumed group checks nothing.
    t.trigger("commit", 1, /*ack=*/0);
    EXPECT_EQ(t.totalViolations(), 0u);
    EXPECT_EQ(t.ruleReports()[0].depsChecked, 1u);
}

TEST(Trigger, NonConsumingGroupIsRecheckable)
{
    OrderingTracker t;
    t.rule("wal").requiresIssued("the line's undo entry");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("wal", 9);
    t.trigger("wal", 9, 0, 1, /*consume=*/false);
    t.trigger("wal", 9, 0, 1, /*consume=*/false);

    EXPECT_EQ(t.totalViolations(), 0u);
    EXPECT_EQ(t.ruleReports()[0].depsChecked, 2u);
}

TEST(Trigger, ClearRuleRetiresEveryGroup)
{
    OrderingTracker t;
    t.rule("wal").requiresIssued("the line's undo entry");

    t.onTimedWrite(kA, 64, 10, 100);
    t.addDep("wal", 1);
    t.onTimedWrite(kB, 64, 20, 110);
    t.addDep("wal", 2);
    t.clearRule("wal"); // e.g. the log was truncated

    t.trigger("wal", 1, 0, /*minDeps=*/1);
    EXPECT_EQ(t.totalViolations(), 1u); // group gone -> presence fails
}

TEST(Counters, RedundantSettleIsCounted)
{
    OrderingTracker t;
    t.onTimedWrite(kA, 64, 10, 100);
    t.onSettle(100); // drains one write
    t.onSettle(200); // drains nothing
    EXPECT_EQ(t.counters().settledWrites, 1u);
    EXPECT_EQ(t.counters().redundantSettles, 1u);
    EXPECT_EQ(t.counters().settleCalls, 2u);
}

TEST(Counters, InflightOverwriteIsCounted)
{
    OrderingTracker t;
    t.onTimedWrite(kA, 8, 10, 100);
    t.onTimedWrite(kA, 8, 20, 110); // same word, first still in flight
    EXPECT_EQ(t.counters().inflightOverwrites, 1u);
    EXPECT_EQ(t.counters().depOverwrites, 0u);

    // After a fence the rewrite is not a race.
    t.onSettle(110);
    t.onTimedWrite(kA, 8, 30, 120);
    EXPECT_EQ(t.counters().inflightOverwrites, 1u);
}

TEST(Counters, DependencyOverwriteWarns)
{
    OrderingTracker t;
    t.rule("commit").requiresDurable("the commit record");

    t.onTimedWrite(kA, 8, 10, 100);
    t.addDep("commit", 1);
    t.onTimedWrite(kA, 8, 20, 110); // clobbers the live dependency

    EXPECT_EQ(t.counters().depOverwrites, 1u);
    ASSERT_EQ(t.warnings().size(), 1u);
    EXPECT_EQ(t.warnings()[0].rule, "commit");
    EXPECT_EQ(t.totalViolations(), 0u) << "races warn, not violate";
}

TEST(Counters, SettlingTheOlderWriterKeepsTheNewerInFlight)
{
    OrderingTracker t;
    t.onTimedWrite(kA, 8, 10, 100); // older writer of the word
    t.onTimedWrite(kA, 8, 20, 200); // newer writer: one overwrite
    t.onSettle(150);                // retires the older writer only
    ASSERT_EQ(t.counters().settledWrites, 1u);

    // The newer writer is still in flight, so this is a second race.
    t.onTimedWrite(kA, 8, 30, 300);
    EXPECT_EQ(t.counters().inflightOverwrites, 2u);
}

TEST(Reporting, UnfiredRuleIsDead)
{
    OrderingTracker t;
    t.rule("used").requiresSettled("something");
    t.rule("orphan").requiresSettled("something else");
    t.trigger("used", 0);

    const auto dead = t.deadRules();
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], "orphan");
}

TEST(Crash, ResetsVolatileStateButKeepsTotals)
{
    OrderingTracker t;
    t.rule("commit").requiresDurable("the commit record");

    t.onTimedWrite(kA, 8, 10, 100);
    t.addDep("commit", 1);
    t.onCrash(50);

    // The open group died with the crash: a post-recovery trigger of
    // the same key checks nothing and passes.
    t.trigger("commit", 1, /*ack=*/0);
    EXPECT_EQ(t.totalViolations(), 0u);

    // The pre-crash write is resolved, not in flight: rewriting its
    // word is not an overwrite race...
    t.onTimedWrite(kA, 8, 60, 160);
    EXPECT_EQ(t.counters().inflightOverwrites, 0u);

    // ...and cumulative totals survive the crash.
    EXPECT_EQ(t.counters().timedWrites, 2u);
    EXPECT_EQ(t.ruleReports()[0].fires, 1u);
}

/**
 * The algorithm OrderingTracker replaced, kept here as its oracle.
 * Every word's last writer stays in a plain map that is never pruned,
 * and a writer counts as in flight while its seq is above the highest
 * settled seq. Rules, groups and the report texts follow the same
 * contract as the tracker's.
 */
class NaiveTracker
{
  public:
    /** The tracker's cap on stored violation and warning traces. */
    static constexpr std::size_t kMaxStoredTraces = 100;

    void
    rule(const std::string &name, OrderingRuleKind kind,
         const std::string &protects)
    {
        OrderingRuleReport r;
        r.name = name;
        r.kind = kind;
        r.protects = protects;
        rules.push_back(r);
    }

    void
    addDep(const std::string &rule, std::uint64_t key)
    {
        const std::size_t ri = indexOf(rule);
        groups_[{ri, key}].push_back(last_);
        depSeqs_[last_.seq] = ri;
    }

    void
    trigger(const std::string &rule, std::uint64_t key, Tick ack,
            std::size_t minDeps, bool consume)
    {
        const std::size_t ri = indexOf(rule);
        OrderingRuleReport &r = rules[ri];
        ++r.fires;
        auto git = groups_.find({ri, key});
        const std::size_t n =
            git == groups_.end() ? 0 : git->second.size();
        if (n < minDeps) {
            violate(ri, "group " + std::to_string(key) + " has " +
                            std::to_string(n) +
                            " dependency write(s), protocol requires "
                            "at least " +
                            std::to_string(minDeps) + " (" + r.protects +
                            ")");
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Write &d = git->second[i];
            ++r.depsChecked;
            if (r.kind == OrderingRuleKind::SettledAtTrigger &&
                d.seq > maxSettledSeq_) {
                violate(ri, "dependency " + describe(d) +
                                " still in flight at trigger (no fence "
                                "settled it; protects " + r.protects +
                                ")");
            } else if (r.kind == OrderingRuleKind::DurableByAck &&
                       d.completion > ack) {
                violate(ri, "dependency " + describe(d) +
                                " not durable at acknowledged tick " +
                                std::to_string(ack) + " (protects " +
                                r.protects + ")");
            }
        }
        if (consume && git != groups_.end())
            eraseGroup(git);
    }

    void
    clearRule(const std::string &rule)
    {
        const std::size_t ri = indexOf(rule);
        auto it = groups_.lower_bound({ri, 0});
        while (it != groups_.end() && it->first.first == ri)
            it = eraseGroup(it);
    }

    void
    onTimedWrite(Addr addr, std::size_t len, Tick completion)
    {
        const Write w{nextSeq_++, addr, static_cast<std::uint32_t>(len),
                      completion};
        ++counters.timedWrites;
        for (Addr word = alignDown(addr, kWordSize); word < addr + len;
             word += kWordSize) {
            auto it = lastWriter_.find(word);
            if (it != lastWriter_.end() && it->second > maxSettledSeq_) {
                ++counters.inflightOverwrites;
                auto dep = depSeqs_.find(it->second);
                if (dep != depSeqs_.end()) {
                    ++counters.depOverwrites;
                    if (warnings.size() < kMaxStoredTraces) {
                        char at[32];
                        std::snprintf(
                            at, sizeof(at), "0x%llx",
                            static_cast<unsigned long long>(word));
                        warnings.push_back(
                            {rules[dep->second].name,
                             describe(w) +
                                 " overwrites an in-flight dependency "
                                 "word at " + at});
                    }
                }
            }
            lastWriter_[word] = w.seq;
        }
        inflight_.push_back(w);
        last_ = w;
    }

    void
    onSettle(Tick tick)
    {
        ++counters.settleCalls;
        std::uint64_t popped = 0;
        while (!inflight_.empty() && inflight_.front().completion <= tick) {
            maxSettledSeq_ = inflight_.front().seq;
            inflight_.pop_front();
            ++popped;
        }
        counters.settledWrites += popped;
        if (popped == 0)
            ++counters.redundantSettles;
    }

    void
    onCrash()
    {
        if (!inflight_.empty())
            maxSettledSeq_ = inflight_.back().seq;
        inflight_.clear();
        lastWriter_.clear();
        depSeqs_.clear();
        groups_.clear();
    }

    OrderingCounters counters;
    std::vector<OrderingRuleReport> rules;
    std::vector<OrderingViolation> violations;
    std::vector<OrderingViolation> warnings;

  private:
    struct Write
    {
        std::uint64_t seq;
        Addr addr;
        std::uint32_t len;
        Tick completion;
    };
    using Groups =
        std::map<std::pair<std::size_t, std::uint64_t>, std::vector<Write>>;

    static std::string
    describe(const Write &w)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "write [0x%llx,+%u) completing at %llu",
                      static_cast<unsigned long long>(w.addr), w.len,
                      static_cast<unsigned long long>(w.completion));
        return buf;
    }

    std::size_t
    indexOf(const std::string &rule) const
    {
        for (std::size_t i = 0; i < rules.size(); ++i) {
            if (rules[i].name == rule)
                return i;
        }
        ADD_FAILURE() << "undeclared rule " << rule;
        return 0;
    }

    void
    violate(std::size_t ri, std::string detail)
    {
        ++rules[ri].violations;
        if (violations.size() < kMaxStoredTraces)
            violations.push_back({rules[ri].name, std::move(detail)});
    }

    Groups::iterator
    eraseGroup(Groups::iterator it)
    {
        for (const Write &d : it->second)
            depSeqs_.erase(d.seq);
        return groups_.erase(it);
    }

    Groups groups_;
    std::deque<Write> inflight_;
    std::map<Addr, std::uint64_t> lastWriter_;
    std::map<std::uint64_t, std::size_t> depSeqs_;
    std::uint64_t maxSettledSeq_ = 0;
    std::uint64_t nextSeq_ = 1;
    Write last_{};
};

void
expectSameTraces(const std::vector<OrderingViolation> &got,
                 const std::vector<OrderingViolation> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].rule, want[i].rule) << "trace " << i;
        ASSERT_EQ(got[i].detail, want[i].detail) << "trace " << i;
    }
}

void
expectSame(const OrderingTracker &t, const NaiveTracker &ref)
{
    const OrderingCounters &c = t.counters();
    ASSERT_EQ(c.timedWrites, ref.counters.timedWrites);
    ASSERT_EQ(c.settleCalls, ref.counters.settleCalls);
    ASSERT_EQ(c.redundantSettles, ref.counters.redundantSettles);
    ASSERT_EQ(c.settledWrites, ref.counters.settledWrites);
    ASSERT_EQ(c.inflightOverwrites, ref.counters.inflightOverwrites);
    ASSERT_EQ(c.depOverwrites, ref.counters.depOverwrites);

    const std::vector<OrderingRuleReport> reps = t.ruleReports();
    ASSERT_EQ(reps.size(), ref.rules.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        ASSERT_EQ(reps[i].name, ref.rules[i].name);
        ASSERT_EQ(reps[i].kind, ref.rules[i].kind);
        ASSERT_EQ(reps[i].protects, ref.rules[i].protects);
        ASSERT_EQ(reps[i].fires, ref.rules[i].fires) << reps[i].name;
        ASSERT_EQ(reps[i].depsChecked, ref.rules[i].depsChecked)
            << reps[i].name;
        ASSERT_EQ(reps[i].violations, ref.rules[i].violations)
            << reps[i].name;
        total += ref.rules[i].violations;
    }
    ASSERT_EQ(t.totalViolations(), total);
    ASSERT_NO_FATAL_FAILURE(
        expectSameTraces(t.violations(), ref.violations));
    ASSERT_NO_FATAL_FAILURE(expectSameTraces(t.warnings(), ref.warnings));
}

/**
 * Drive the tracker and the oracle with one seeded stream of @p steps
 * operations, comparing every report after each; returns the oracle's
 * counters so the caller can check the stream reached every path.
 */
OrderingCounters
runAgainstOracle(std::uint64_t seed, unsigned steps)
{
    static constexpr const char *kRules[] = {"settled", "durable",
                                             "issued"};
    OrderingTracker t;
    NaiveTracker ref;
    t.rule("settled").requiresSettled("settled deps");
    ref.rule("settled", OrderingRuleKind::SettledAtTrigger,
             "settled deps");
    t.rule("durable").requiresDurable("durable deps");
    ref.rule("durable", OrderingRuleKind::DurableByAck, "durable deps");
    t.rule("issued").requiresIssued("issued deps");
    ref.rule("issued", OrderingRuleKind::IssuedBeforeTrigger,
             "issued deps");

    // Writes land in a 1 KiB window, so they overlap one another and
    // cross line boundaries; completions are up to 400 ticks out and
    // settle ticks fall among them, so fences retire some in-flight
    // writes and leave later ones.
    Rng rng(seed);
    Tick now = 1000;
    bool have_write = false;
    for (unsigned step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.nextBounded(100);
        const char *rule = kRules[rng.nextBounded(3)];
        const std::uint64_t key = rng.nextBounded(4);
        if (op < 45) {
            now += rng.nextRange(1, 20);
            Addr addr = 0x10000 + rng.nextBounded(1024);
            if (rng.nextBool(0.5))
                addr = alignDown(addr, kWordSize);
            const std::size_t len = rng.nextRange(8, 256);
            const Tick completion = now + rng.nextRange(1, 400);
            t.onTimedWrite(addr, len, now, completion);
            ref.onTimedWrite(addr, len, completion);
            have_write = true;
        } else if (op < 60) {
            if (!have_write)
                continue;
            t.addDep(rule, key);
            ref.addDep(rule, key);
        } else if (op < 75) {
            const Tick tick = now - 100 + rng.nextBounded(500);
            t.onSettle(tick);
            ref.onSettle(tick);
        } else if (op < 92) {
            const Tick ack = now - 200 + rng.nextBounded(600);
            const std::size_t min_deps = rng.nextBounded(3);
            const bool consume = rng.nextBool(0.6);
            t.trigger(rule, key, ack, min_deps, consume);
            ref.trigger(rule, key, ack, min_deps, consume);
        } else if (op < 97) {
            t.clearRule(rule);
            ref.clearRule(rule);
        } else {
            t.onCrash(now);
            ref.onCrash();
            have_write = false;
        }
        expectSame(t, ref);
        if (::testing::Test::HasFatalFailure()) {
            ADD_FAILURE() << "first mismatch at seed " << seed << " step "
                          << step;
            break;
        }
    }
    return ref.counters;
}

TEST(Oracle, MatchesTheUnprunedPerWordTracker)
{
    OrderingCounters sum;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const OrderingCounters c = runAgainstOracle(seed, 3000);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        sum.settledWrites += c.settledWrites;
        sum.redundantSettles += c.redundantSettles;
        sum.inflightOverwrites += c.inflightOverwrites;
        sum.depOverwrites += c.depOverwrites;
    }
    // The streams reach every path the two trackers must agree on.
    EXPECT_GT(sum.settledWrites, 0u);
    EXPECT_GT(sum.redundantSettles, 0u);
    EXPECT_GT(sum.inflightOverwrites, 0u);
    EXPECT_GT(sum.depOverwrites, 0u);
}

} // namespace
} // namespace hoopnvm
