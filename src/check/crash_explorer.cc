#include "check/crash_explorer.hh"

#include <algorithm>
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

} // namespace

ScheduleResult
runSchedule(const CrashSchedule &sched)
{
    ScheduleResult res;
    // The small, eviction-heavy machine (mirrors the crash property
    // tests): tiny caches widen the crash surface and a short GC
    // period guarantees GC-boundary events inside a short window.
    SystemConfig cfg = smallCheckConfig(sched.numCores, sched.seed);
    cfg.debugNoCommitFence = sched.breakCommitFence;
    cfg.ft.enabled = sched.runtimeFaultProb > 0;
    // Check windows span tens of transactions, far less simulated time
    // than the default scrub cadence; scrub on the GC period so
    // scrub-driven retirement is reachable inside a schedule.
    cfg.ft.scrubPeriod = cfg.gcPeriod;
    CheckRig rig(cfg, sched.scheme, sched.workload, sched.tornWrites,
                 std::string(schemeToken(sched.scheme)) + "/" +
                     sched.workload);
    System &sys = rig.sys();

    rig.runRounds(0, sched.warmupTx);
    std::uint64_t txi = sched.warmupTx;

    // Faults land after warmup, over capacity that is free *now*: the
    // program-verify contract then guarantees no committed data ever
    // sits on an uncorrectable cell, which is what keeps the oracles
    // strict under this regime.
    if (sched.runtimeFaultProb > 0)
        rig.installRuntimeFaults(sched.runtimeFaultProb, 0);

    sys.crashHook().resetCounts();

    // The ordering analyzer arms after warmup (rules judge the steady
    // state) and watches every phase that follows: the crash window,
    // the crash itself (onCrash retires in-flight state) and recovery.
    OrderingTracker tracker;
    if (sched.ordering)
        sys.armOrdering(&tracker);
    auto captureOrdering = [&]() {
        if (!sched.ordering)
            return;
        res.orderingRules = tracker.ruleReports();
        res.orderingTraces = tracker.violations();
        sys.armOrdering(nullptr);
    };

    auto oracle = [&](const char *when) {
        res.violated = !rig.oracle(when, &res.detail);
        return !res.violated;
    };

    auto runWindow = [&]() {
        for (std::uint64_t n = 0; n < sched.runTx; ++n, ++txi) {
            for (unsigned c = 0; c < rig.numCores(); ++c) {
                try {
                    rig.wl(c).runTransaction(txi);
                } catch (const TxRejected &) {
                    // Graceful degradation: the rejected transaction
                    // wrote no commit record, so crash + recovery
                    // discards its partial effects and the stream
                    // continues on the surviving committed state.
                    sys.crash();
                    sys.recover(sched.recoverThreads);
                    rig.dropPendingShadows();
                }
            }
            sys.maintenance();
        }
    };

    if (sched.steps.empty()) {
        // Profiling run: measure per-class events over a crash-free
        // window, then one end-of-window crash for RecoveryStep counts.
        runWindow();
        res.events = sys.crashHook().counts();
        sys.crash();
        const std::uint64_t before =
            sys.crashHook().count(CrashPointKind::RecoveryStep);
        sys.recover(sched.recoverThreads);
        res.events[kindIndex(CrashPointKind::RecoveryStep)] =
            sys.crashHook().count(CrashPointKind::RecoveryStep) - before;
        oracle("profiling run");
        captureOrdering();
        return res;
    }

    for (const CrashStep &step : sched.steps) {
        sys.crashHook().arm(step.kind, step.countdown);
        bool crashed = false;
        try {
            runWindow();
        } catch (const SimCrash &) {
            crashed = true;
        }
        sys.crashHook().disarm(step.kind);
        if (!crashed)
            continue; // countdown exceeded the window's events

        res.crashFired = true;
        sys.crash();

        bool rec_crashed = false;
        if (step.recoveryCountdown > 0) {
            sys.crashHook().arm(CrashPointKind::RecoveryStep,
                                step.recoveryCountdown);
            try {
                sys.recover(sched.recoverThreads);
            } catch (const SimCrash &) {
                rec_crashed = true;
                res.recoveryCrashFired = true;
            }
            sys.crashHook().disarm(CrashPointKind::RecoveryStep);
            if (rec_crashed) {
                // Power fails again mid-recovery: discard the
                // half-rebuilt volatile state and re-enter recovery on
                // the twice-crashed image.
                sys.crash();
                sys.recover(sched.recoverThreads);
            }
        } else {
            sys.recover(sched.recoverThreads);
        }

        if (!oracle(rec_crashed ? "after crash-during-recovery"
                                : "after crash + recovery")) {
            captureOrdering();
            return res;
        }
    }

    res.events = sys.crashHook().counts();
    captureOrdering();
    return res;
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

    for (CrashPointKind kind : kinds) {
        const unsigned ki = kindIndex(kind);
        const std::uint64_t events = rep.eventsProfiled[ki];
        if (events == 0)
            continue; // this scheme never reaches the boundary class
        const std::uint64_t n = std::min(per_kind, events);
        const std::uint64_t stores = std::max<std::uint64_t>(
            1, rep.eventsProfiled[kindIndex(CrashPointKind::Store)]);

        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t pos = 1 + (i * events) / n;
            CrashSchedule sched = base;
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
            sched.steps.push_back(step);

            if (opt.progress)
                opt.progress(sched);
            const ScheduleResult r = runSchedule(sched);
            absorbOrdering(r);
            ++rep.schedulesRun;
            ++rep.schedulesPerKind[ki];
            if (r.crashFired)
                ++rep.crashesFired;
            if (r.recoveryCrashFired)
                ++rep.recoveryCrashesFired;
            const bool kind_fired = kind == CrashPointKind::RecoveryStep
                                        ? r.recoveryCrashFired
                                        : r.crashFired;
            if (kind_fired)
                ++rep.firedPerKind[ki];
            if (r.violated) {
                Violation v;
                v.detail = r.detail;
                v.reproducer = shrink(sched, &v.detail, opt.progress);
                rep.violations.push_back(std::move(v));
            }
        }
    }
    return rep;
}

} // namespace hoopnvm
