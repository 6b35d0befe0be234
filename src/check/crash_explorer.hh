/**
 * @file
 * Systematic crash-point exploration engine.
 *
 * The explorer turns the paper's core guarantee — recovery restores
 * exactly the committed prefix (§II-A) — into a searchable property.
 * A profiling run first measures how many crash-point events of each
 * boundary class (stores, evictions, commit records, GC steps,
 * recovery steps) one deterministic workload window exposes; the
 * budget is then spread across the classes as evenly-spaced crash
 * schedules. Each schedule crashes, optionally crashes *again inside
 * recovery*, re-enters recovery on the twice-crashed image, and
 * validates the shared post-recovery oracle (CheckRig::oracle,
 * check/rig.hh): committed-shadow equality with the commit-record
 * ambiguity resolved both ways, then the workload's structural
 * invariants.
 *
 * A violating schedule is shrunk to a minimal reproducer and can be
 * serialized for deterministic replay (see crash_schedule.hh).
 */

#ifndef HOOPNVM_CHECK_CRASH_EXPLORER_HH
#define HOOPNVM_CHECK_CRASH_EXPLORER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/ordering_tracker.hh"
#include "check/crash_schedule.hh"

namespace hoopnvm
{

/** Parameters of one exploration sweep (one scheme x one workload). */
struct ExploreOptions
{
    Scheme scheme = Scheme::Hoop;
    std::string workload = "vector";
    std::uint64_t seed = 42;

    /** Maximum schedules to run, split across the boundary classes. */
    std::uint64_t budget = 100;

    unsigned numCores = 2;
    std::uint64_t warmupTx = 10;
    std::uint64_t runTx = 40;
    unsigned recoverThreads = 2;

    bool tornWrites = false;

    /**
     * Runtime media-fault regime (see CrashSchedule::runtimeFaultProb):
     * fault tolerance enabled, seeded wear-out + transient faults, and
     * the oracles stay strict.
     */
    double runtimeFaultProb = 0.0;

    /** Debug knob: commit acks before the record is durable. */
    bool breakCommitFence = false;

    /**
     * Arm the persistency-ordering analyzer on every schedule. Rule
     * checks run continuously, so a broken fence is reported as a
     * violated rule even when no schedule's crash lands in the
     * vulnerable window.
     */
    bool ordering = false;

    /** Boundary classes to explore; empty = all five. */
    std::vector<CrashPointKind> kinds;

    /**
     * Invoked immediately before each schedule executes (profiling and
     * shrink runs included). Drives external progress tracking — the
     * CLI beats its per-schedule watchdog here.
     */
    std::function<void(const CrashSchedule &)> progress;
};

/** Outcome of executing one schedule. */
struct ScheduleResult
{
    bool violated = false;

    /** Any step's primary crash point actually fired. */
    bool crashFired = false;

    /** A crash-during-recovery point actually fired. */
    bool recoveryCrashFired = false;

    /** Human-readable description of the first violation. */
    std::string detail;

    /** Per-class event counts over the run window (profiling). */
    std::array<std::uint64_t, kNumCrashPointKinds> events{};

    /** Per-rule outcome of this schedule (ordering armed only). */
    std::vector<OrderingRuleReport> orderingRules;

    /** Ordering-violation traces of this schedule (capped). */
    std::vector<OrderingViolation> orderingTraces;
};

/** One confirmed, shrunken violation. */
struct Violation
{
    CrashSchedule reproducer;
    std::string detail;
};

/** Aggregate outcome of explore(). */
struct ExploreReport
{
    /** Event counts measured by the profiling run. */
    std::array<std::uint64_t, kNumCrashPointKinds> eventsProfiled{};

    std::uint64_t schedulesRun = 0;
    std::uint64_t crashesFired = 0;
    std::uint64_t recoveryCrashesFired = 0;

    std::array<std::uint64_t, kNumCrashPointKinds> schedulesPerKind{};
    std::array<std::uint64_t, kNumCrashPointKinds> firedPerKind{};

    std::vector<Violation> violations;

    /**
     * Per-rule outcomes summed over every schedule of the sweep
     * (ordering armed only). A rule with zero aggregate fires never
     * triggered anywhere in the sweep — a spec-coverage hole.
     */
    std::vector<OrderingRuleReport> orderingRules;

    /** Total ordering-rule violations over the sweep. */
    std::uint64_t orderingViolations = 0;

    /** Sample ordering-violation traces (capped). */
    std::vector<OrderingViolation> orderingTraces;
};

/**
 * Execute @p schedule deterministically: warmup, then each crash step,
 * recovery (re-entered if the step crashed it), and both oracles.
 * A schedule with no steps is a profiling run: the window executes
 * crash-free, a final crash+recovery measures RecoveryStep events, and
 * per-class counts are returned in ScheduleResult::events.
 */
ScheduleResult runSchedule(const CrashSchedule &schedule);

/**
 * Greedily shrink @p failing toward a minimal schedule that still
 * violates: drop steps, shrink warmup/window, reduce countdowns.
 * @p progress (optional) is invoked before each shrink attempt runs.
 * @return the smallest still-violating schedule found.
 */
CrashSchedule
shrink(const CrashSchedule &failing, std::string *detail = nullptr,
       const std::function<void(const CrashSchedule &)> &progress = {});

/** Run a full budget-bounded sweep for one scheme x workload. */
ExploreReport explore(const ExploreOptions &opt);

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_CRASH_EXPLORER_HH
