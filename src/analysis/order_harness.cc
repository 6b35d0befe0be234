#include "analysis/order_harness.hh"

#include "check/rig.hh"

namespace hoopnvm
{

SystemConfig
smallCheckConfig(unsigned numCores, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numCores = numCores;
    cfg.seed = seed;
    cfg.homeBytes = miB(64);
    // Small OOP blocks fill within a short window, so HOOP's GC has
    // real migration candidates; the watermark and recycle rules need
    // GC to actually collect something.
    cfg.oopBytes = miB(1);
    cfg.oopBlockBytes = kiB(8);
    cfg.auxBytes = miB(64) + miB(8);
    cfg.cache.l1Size = kiB(1);
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Size = kiB(4);
    cfg.cache.l2Assoc = 2;
    cfg.cache.llcSize = kiB(16);
    cfg.cache.llcAssoc = 4;
    cfg.gcPeriod = nsToTicks(10'000);
    return cfg;
}

OrderCheckReport
runOrderCheck(const OrderCheckOptions &opt)
{
    SystemConfig cfg = smallCheckConfig(opt.numCores, opt.seed);
    cfg.debugNoCommitFence = opt.breakCommitFence;
    cfg.debugEarlyCommitAck = opt.earlyCommitAck;
    cfg.debugSkipSettleFences = opt.skipSettleFences;
    cfg.debugSkipUndoLog = opt.skipUndoLog;
    CheckRig rig(cfg, opt.scheme, opt.workload, opt.tornWrites, "");
    System &sys = rig.sys();

    // Warmup runs untracked: rules judge the steady state, and setup /
    // cold-cache traffic would only add noise to the counters.
    rig.driver().runRounds(opt.warmupTx);

    OrderingTracker tracker;
    sys.armOrdering(&tracker);

    OrderCheckReport rep;
    rig.driver().runRounds(opt.runTx);
    rep.transactions = opt.runTx * cfg.numCores;
    // The final drain pushes every background mechanism to completion
    // (GC, checkpoints, truncation), so drain-side rules must fire at
    // least once in any non-trivial run.
    sys.finalize();

    rep.verified = rig.driver().verify();

    rep.rules = tracker.ruleReports();
    rep.deadRules = tracker.deadRules();
    rep.violations = tracker.violations();
    rep.warnings = tracker.warnings();
    rep.counters = tracker.counters();
    rep.totalViolations = tracker.totalViolations();

    sys.armOrdering(nullptr);
    return rep;
}

} // namespace hoopnvm
