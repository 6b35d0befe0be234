#include "check/crash_explorer.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/order_harness.hh"
#include "check/rig.hh"
#include "check/spec.hh"
#include "common/errors.hh"

namespace hoopnvm
{

namespace
{

unsigned
kindIndex(CrashPointKind k)
{
    return static_cast<unsigned>(k);
}

/** Shrink candidates of @p s, in the order shrink() tries them. */
std::vector<CrashSchedule>
shrinkCandidates(const CrashSchedule &s)
{
    std::vector<CrashSchedule> out;
    // Drop whole steps.
    for (std::size_t i = 0; s.steps.size() > 1 && i < s.steps.size();
         ++i) {
        out.push_back(s);
        out.back().steps.erase(out.back().steps.begin() +
                               static_cast<long>(i));
    }
    // Shrink the warmup prefix, then the crash window.
    if (s.warmupTx > 0) {
        out.push_back(s);
        out.back().warmupTx /= 2;
    }
    if (s.runTx > 1) {
        out.push_back(s);
        out.back().runTx /= 2;
    }
    // Pull crash points earlier.
    for (std::size_t i = 0; i < s.steps.size(); ++i) {
        if (s.steps[i].countdown > 1) {
            out.push_back(s);
            out.back().steps[i].countdown /= 2;
        }
        if (s.steps[i].recoveryCountdown > 1) {
            out.push_back(s);
            out.back().steps[i].recoveryCountdown /= 2;
        }
    }
    return out;
}

/** The small-check machine @p s runs on, with its fault and debug knobs. */
SystemConfig
checkConfig(const CrashSchedule &s)
{
    // The small, eviction-heavy machine (mirrors the crash property
    // tests): tiny caches widen the crash surface and a short GC
    // period guarantees GC-boundary events inside a short window.
    SystemConfig cfg = smallCheckConfig(s.numCores, s.seed);
    cfg.debugNoCommitFence = s.breakCommitFence;
    cfg.ft.enabled = s.runtimeFaultProb > 0;
    // Check windows span tens of transactions, far less simulated time
    // than the default scrub cadence; scrub on the GC period so
    // scrub-driven retirement is reachable inside a schedule.
    cfg.ft.scrubPeriod = cfg.gcPeriod;
    return cfg;
}

std::string
rigLabel(const CrashSchedule &s)
{
    return std::string(schemeToken(s.scheme)) + "/" + s.workload;
}

/**
 * Run @p s's warm-up on @p rig and arm what its crash window runs
 * under: the runtime faults, zeroed crash-point counts and, when
 * @p s.ordering, @p tracker.
 * @return the window's first transaction index.
 */
std::uint64_t
beginWindow(CheckRig &rig, const CrashSchedule &s,
            OrderingTracker &tracker)
{
    rig.runRounds(0, s.warmupTx);

    // Faults land after warmup, over capacity that is free *now*: the
    // program-verify contract then guarantees no committed data ever
    // sits on an uncorrectable cell, which is what keeps the oracles
    // strict under this regime.
    if (s.runtimeFaultProb > 0)
        rig.installRuntimeFaults(s.runtimeFaultProb, 0);

    rig.sys().crashHook().resetCounts();

    // The ordering analyzer arms after warmup (rules judge the steady
    // state) and watches every phase that follows: the crash window,
    // the crash itself (onCrash retires in-flight state) and recovery.
    if (s.ordering)
        rig.sys().armOrdering(&tracker);
    return s.warmupTx;
}

/**
 * Run @p s.runTx rounds of the crash window on @p rig from transaction
 * index @p txi: one transaction per core, then maintenance. @p after,
 * when set, runs after each core's transaction, told whether it was
 * rejected.
 */
void
runWindow(CheckRig &rig, const CrashSchedule &s, std::uint64_t &txi,
          const std::function<void(unsigned, bool)> &after = {})
{
    for (std::uint64_t n = 0; n < s.runTx; ++n, ++txi) {
        for (unsigned c = 0; c < rig.numCores(); ++c) {
            bool rejected = false;
            try {
                rig.wl(c).runTransaction(txi);
            } catch (const TxRejected &rj) {
                // Graceful degradation: an admission reject wrote
                // nothing; a mid-transaction unwind wrote no commit
                // record, so crash + recovery discards its partial
                // effects and the stream continues on the surviving
                // committed state.
                rig.resolveReject(rj, c, s.recoverThreads);
                rejected = true;
            }
            if (after)
                after(c, rejected);
        }
        rig.sys().maintenance();
    }
}

/**
 * Crash @p sys, standing at @p step's primary crash point, and recover
 * it; a recovery countdown in @p step crashes that recovery, which then
 * re-enters on the twice-crashed image.
 * @return when the oracle judges, for its violation detail.
 */
const char *
crashAndRecover(System &sys, const CrashStep &step, unsigned threads,
                ScheduleResult *res)
{
    sys.crash();
    if (step.recoveryCountdown == 0) {
        sys.recover(threads);
        return "after crash + recovery";
    }
    bool rec_crashed = false;
    sys.crashHook().arm(CrashPointKind::RecoveryStep,
                        step.recoveryCountdown);
    try {
        sys.recover(threads);
    } catch (const SimCrash &) {
        rec_crashed = true;
        res->recoveryCrashFired = true;
    }
    sys.crashHook().disarm(CrashPointKind::RecoveryStep);
    if (!rec_crashed)
        return "after crash + recovery";
    // Power fails again mid-recovery: discard the half-rebuilt volatile
    // state and re-enter recovery on the twice-crashed image.
    sys.crash();
    sys.recover(threads);
    return "after crash-during-recovery";
}

/** Record @p tracker's per-rule outcome and traces in @p res. */
void
captureOrdering(const OrderingTracker &tracker, ScheduleResult *res)
{
    res->orderingRules = tracker.ruleReports();
    res->orderingTraces = tracker.violations();
}

/** One crash point of a sweep and its outcome. */
struct SweepPoint
{
    /** The sweep's base schedule plus this point's one step. */
    CrashSchedule sched;

    /** The boundary class it is counted under. */
    CrashPointKind kind = CrashPointKind::Store;

    ScheduleResult result;

    /** The pass could not judge it as runSchedule() would. */
    bool rerun = false;
};

/**
 * The armed pass of explore(): one rig runs the sweep's warm-up and
 * window once, with every point's primary crash point armed on a
 * tapped CrashHook. At each point a fresh System adopts the rig's
 * image, crashes and recovers (with its own copy of the ordering
 * tracker), and CheckRig::judge() runs the oracle on it against the
 * rig's shadows. The window itself runs on untouched.
 *
 * A point inside a commit whose strict check fails needs that commit's
 * pending shadow update. Its recovered fork is kept until the core's
 * transaction returns with the update applied, then judged from that
 * core on. A point the pass cannot judge as runSchedule() would (its
 * update was never applied) is marked for a re-run.
 */
class SweepPass
{
  public:
    SweepPass(const CrashSchedule &base, std::vector<SweepPoint> &points,
              const std::function<void(const CrashSchedule &)> &progress)
        : base_(base), points_(points), progress_(progress),
          rig_(checkConfig(base), base.scheme, base.workload,
               base.tornWrites, rigLabel(base))
    {
        for (std::size_t i = 0; i < points_.size(); ++i) {
            const CrashStep &step = points_[i].sched.steps.front();
            due_[kindIndex(step.kind)].push_back({step.countdown, i});
        }
        for (auto &due : due_)
            std::sort(due.begin(), due.end());
    }

    void
    run()
    {
        System &sys = rig_.sys();
        std::uint64_t txi = beginWindow(rig_, base_, tracker_);
        CrashHook &hook = sys.crashHook();
        for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
            if (!due_[k].empty())
                hook.arm(static_cast<CrashPointKind>(k),
                         due_[k].front().first);
        }
        hook.setTap([this](CrashPointKind k) { onCrashPoint(k); });
        runWindow(rig_, base_, txi, [this](unsigned c, bool rejected) {
            transactionDone(c, rejected);
        });
        hook.setTap({});
        for (unsigned k = 0; k < kNumCrashPointKinds; ++k)
            hook.disarm(static_cast<CrashPointKind>(k));

        for (Deferred &d : deferred_)
            points_[d.point].rerun = true;
        // A point the window never reached never fired: its schedule
        // ran the whole window crash-free.
        for (SweepPoint &p : points_) {
            if (p.result.crashFired)
                continue;
            p.result.events = hook.counts();
            if (base_.ordering)
                captureOrdering(tracker_, &p.result);
        }
        if (base_.ordering)
            sys.armOrdering(nullptr);
    }

  private:
    /** A recovered fork waiting for its core's shadow update. */
    struct Deferred
    {
        std::size_t point;
        unsigned core;
        std::unique_ptr<System> image;
        const char *when;
    };

    /** The tap: fork every point due at this event, arm the next. */
    void
    onCrashPoint(CrashPointKind k)
    {
        const unsigned ki = kindIndex(k);
        std::size_t at = next_[ki];
        const std::uint64_t event = due_[ki][at].first;
        for (; at < due_[ki].size() && due_[ki][at].first == event; ++at)
            fork(due_[ki][at].second);
        next_[ki] = at;
        if (at < due_[ki].size())
            rig_.sys().crashHook().arm(k, due_[ki][at].first - event);
    }

    void
    fork(std::size_t i)
    {
        SweepPoint &p = points_[i];
        if (progress_)
            progress_(p.sched);
        p.result.crashFired = true;
        auto image = std::make_unique<System>(rig_.sys().config(),
                                              base_.scheme);
        image->adoptImage(rig_.sys());
        OrderingTracker tracker;
        if (base_.ordering) {
            tracker = tracker_;
            image->armOrdering(&tracker);
        }
        const char *when =
            crashAndRecover(*image, p.sched.steps.front(),
                            base_.recoverThreads, &p.result);
        if (base_.ordering) {
            captureOrdering(tracker, &p.result);
            image->armOrdering(nullptr);
        }
        // The window's events up to this point, then the fork's.
        p.result.events = rig_.sys().crashHook().counts();
        for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
            p.result.events[k] +=
                image->crashHook().count(static_cast<CrashPointKind>(k));
        }
        judge(i, std::move(image), 0, when);
    }

    void
    judge(std::size_t i, std::unique_ptr<System> image, unsigned core,
          const char *when)
    {
        ScheduleResult &r = points_[i].result;
        switch (rig_.judge(*image, &core, when, &r.detail)) {
          case CheckRig::Verdict::Pass:
            return;
          case CheckRig::Verdict::Fail:
            r.violated = true;
            return;
          case CheckRig::Verdict::Pending:
            // Only a core inside its commit has a pending update, and
            // its transaction is the one running.
            if (rig_.sys().core(core).inTx())
                deferred_.push_back({i, core, std::move(image), when});
            else
                points_[i].rerun = true;
            return;
        }
    }

    /** Core @p c's transaction returned or was rejected. */
    void
    transactionDone(unsigned c, bool rejected)
    {
        std::vector<Deferred> ready;
        ready.swap(deferred_);
        for (Deferred &d : ready) {
            if (d.core == c && !rejected &&
                !rig_.wl(c).hasPendingShadow())
                judge(d.point, std::move(d.image), c, d.when);
            else
                points_[d.point].rerun = true;
        }
    }

    const CrashSchedule &base_;
    std::vector<SweepPoint> &points_;
    const std::function<void(const CrashSchedule &)> &progress_;
    CheckRig rig_;
    OrderingTracker tracker_;

    /** Per primary class: (event, point) in event order. */
    std::array<std::vector<std::pair<std::uint64_t, std::size_t>>,
               kNumCrashPointKinds>
        due_;
    std::array<std::size_t, kNumCrashPointKinds> next_{};
    std::vector<Deferred> deferred_;
};

} // namespace

ScheduleResult
runSchedule(const CrashSchedule &sched)
{
    ScheduleResult res;
    CheckRig rig(checkConfig(sched), sched.scheme, sched.workload,
                 sched.tornWrites, rigLabel(sched));
    System &sys = rig.sys();
    OrderingTracker tracker;
    std::uint64_t txi = beginWindow(rig, sched, tracker);
    auto finish = [&]() {
        if (sched.ordering) {
            captureOrdering(tracker, &res);
            sys.armOrdering(nullptr);
        }
        return res;
    };

    if (sched.steps.empty()) {
        // Profiling run: measure per-class events over a crash-free
        // window, then one end-of-window crash for RecoveryStep counts.
        runWindow(rig, sched, txi);
        res.events = sys.crashHook().counts();
        sys.crash();
        const std::uint64_t before =
            sys.crashHook().count(CrashPointKind::RecoveryStep);
        sys.recover(sched.recoverThreads);
        res.events[kindIndex(CrashPointKind::RecoveryStep)] =
            sys.crashHook().count(CrashPointKind::RecoveryStep) - before;
        res.violated = !rig.oracle("profiling run", &res.detail);
        return finish();
    }

    for (const CrashStep &step : sched.steps) {
        sys.crashHook().arm(step.kind, step.countdown);
        bool crashed = false;
        try {
            runWindow(rig, sched, txi);
        } catch (const SimCrash &) {
            crashed = true;
        }
        sys.crashHook().disarm(step.kind);
        if (!crashed)
            continue; // countdown exceeded the window's events

        res.crashFired = true;
        const char *when =
            crashAndRecover(sys, step, sched.recoverThreads, &res);
        if (!rig.oracle(when, &res.detail)) {
            res.violated = true;
            break;
        }
    }

    res.events = sys.crashHook().counts();
    return finish();
}

CrashSchedule
shrink(const CrashSchedule &failing, std::string *detail,
       const std::function<void(const CrashSchedule &)> &progress)
{
    auto violates = [&progress](const CrashSchedule &cand,
                                std::string *d) {
        if (progress)
            progress(cand);
        const ScheduleResult r = runSchedule(cand);
        *d = r.detail;
        return r.violated;
    };
    return shrinkSpec(failing, 48, shrinkCandidates, violates, detail);
}

ExploreReport
explore(const ExploreOptions &opt)
{
    ExploreReport rep;

    CrashSchedule base;
    base.scheme = opt.scheme;
    base.workload = opt.workload;
    base.seed = opt.seed;
    base.numCores = opt.numCores;
    base.warmupTx = opt.warmupTx;
    base.runTx = opt.runTx;
    base.recoverThreads = opt.recoverThreads;
    // A broken commit fence is only observable when the in-flight
    // record can actually tear.
    base.tornWrites = opt.tornWrites || opt.breakCommitFence;
    base.runtimeFaultProb = opt.runtimeFaultProb;
    base.breakCommitFence = opt.breakCommitFence;
    base.ordering = opt.ordering;

    // Sum per-rule outcomes across schedules (merged by rule name): a
    // rule with zero fires over the whole sweep is dead, and every
    // violation counts even when its schedule's crash missed the
    // vulnerable window.
    auto absorbOrdering = [&rep](const ScheduleResult &r) {
        mergeRuleReports(&rep.orderingRules, r.orderingRules);
        for (const OrderingRuleReport &rr : r.orderingRules)
            rep.orderingViolations += rr.violations;
        for (const OrderingViolation &v : r.orderingTraces) {
            if (rep.orderingTraces.size() < 50)
                rep.orderingTraces.push_back(v);
        }
    };

    if (opt.progress)
        opt.progress(base);
    const ScheduleResult profile = runSchedule(base);
    rep.eventsProfiled = profile.events;
    absorbOrdering(profile);

    std::vector<CrashPointKind> kinds = opt.kinds;
    if (kinds.empty()) {
        for (unsigned k = 0; k < kNumCrashPointKinds; ++k)
            kinds.push_back(static_cast<CrashPointKind>(k));
    }

    const std::uint64_t per_kind = std::max<std::uint64_t>(
        1, opt.budget / kinds.size());

    std::vector<SweepPoint> points;
    for (CrashPointKind kind : kinds) {
        const std::uint64_t events = rep.eventsProfiled[kindIndex(kind)];
        if (events == 0)
            continue; // this scheme never reaches the boundary class
        const std::uint64_t n = std::min(per_kind, events);
        const std::uint64_t stores = std::max<std::uint64_t>(
            1, rep.eventsProfiled[kindIndex(CrashPointKind::Store)]);

        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t pos = 1 + (i * events) / n;
            SweepPoint &p = points.emplace_back();
            p.sched = base;
            p.kind = kind;
            CrashStep step;
            if (kind == CrashPointKind::RecoveryStep) {
                // Crash-during-recovery: a primary store crash brings
                // the system down, a surviving RecoveryStep countdown
                // crashes the recovery that follows.
                step.kind = CrashPointKind::Store;
                step.countdown = 1 + (i * stores) / n;
                step.recoveryCountdown = pos;
            } else {
                step.kind = kind;
                step.countdown = pos;
            }
            p.sched.steps.push_back(step);
        }
    }
    if (!points.empty())
        SweepPass(base, points, opt.progress).run();

    for (SweepPoint &p : points) {
        if (p.rerun) {
            if (opt.progress)
                opt.progress(p.sched);
            p.result = runSchedule(p.sched);
            ++rep.pointsRerun;
        }
        const ScheduleResult &r = p.result;
        const unsigned ki = kindIndex(p.kind);
        absorbOrdering(r);
        ++rep.schedulesRun;
        ++rep.schedulesPerKind[ki];
        if (r.crashFired)
            ++rep.crashesFired;
        if (r.recoveryCrashFired)
            ++rep.recoveryCrashesFired;
        const bool kind_fired = p.kind == CrashPointKind::RecoveryStep
                                    ? r.recoveryCrashFired
                                    : r.crashFired;
        if (kind_fired)
            ++rep.firedPerKind[ki];
        if (r.violated) {
            Violation v;
            v.detail = r.detail;
            v.reproducer = shrink(p.sched, &v.detail, opt.progress);
            rep.violations.push_back(std::move(v));
        }
        if (opt.outcome)
            opt.outcome(p.sched, r);
    }
    return rep;
}

} // namespace hoopnvm
