#include "fleet/shard.hh"

#include <algorithm>

#include "analysis/order_harness.hh"
#include "common/errors.hh"
#include "fleet/client_policy.hh"

namespace hoopnvm
{

namespace
{

SystemConfig
shardSystemConfig(const ShardConfig &cfg)
{
    SystemConfig sc = smallCheckConfig(cfg.numCores, cfg.seed);
    sc.ft.enabled = true;
    // Seeded bug: drop the fence between data persistence and the
    // commit record, so a crash can tear an already-acked commit.
    sc.debugNoCommitFence = cfg.injectAckBeforeDurable;
    return sc;
}

} // namespace

FleetShard::FleetShard(unsigned id, const ShardConfig &cfg)
    : id_(id),
      cfg_(cfg),
      rig_(shardSystemConfig(cfg), cfg.scheme, cfg.workload,
           cfg.injectAckBeforeDurable, "shard " + std::to_string(id))
{
}

void
FleetShard::warmup()
{
    rig_.runRounds(0, cfg_.warmupTx);
}

ServeResult
FleetShard::serve(CoreId core, std::uint64_t seq,
                  std::string *violation)
{
    ServeResult r;
    System &sys = rig_.sys();
    const Tick before = sys.core(core).clock();
    try {
        rig_.wl(core).runTransaction(seq);
        sys.maintenance();
        r.status = ServeStatus::Acked;
        ++counters_.acked;
    } catch (const TxRejected &rj) {
        const RejectResolution res = handleClientReject(
            rj, sys, rig_.workloads(), core, cfg_.recoverThreads);
        if (res.action == RejectAction::AdmissionSkip) {
            r.status = ServeStatus::RejectedAdmission;
            ++counters_.rejectedAdmission;
        } else {
            r.status = ServeStatus::RejectedMidTx;
            r.recoveryTicks = res.recoveryTicks;
            ++counters_.rejectedMidTx;
            ++counters_.recoveries;
            // Every recovery must land on the survivor state.
            oracle("after mid-transaction unwind recovery", violation);
        }
    }
    const Tick after = sys.core(core).clock();
    r.serviceTicks = after > before ? after - before : 1;
    return r;
}

bool
FleetShard::chaosCrash(Tick now, std::string *violation)
{
    rig_.sys().crash();
    const Tick rt = rig_.sys().recover(cfg_.recoverThreads);
    rig_.dropPendingShadows();
    unavailableUntil_ = std::max(unavailableUntil_, now + rt);
    ++counters_.chaosCrashes;
    ++counters_.recoveries;
    return oracle("after chaos crash recovery", violation);
}

void
FleetShard::chaosStall(Tick now, Tick duration)
{
    unavailableUntil_ = std::max(unavailableUntil_, now + duration);
    ++counters_.stallWindows;
}

void
FleetShard::chaosFaultRamp(double prob, unsigned salt)
{
    rig_.installRuntimeFaults(prob, salt);
    ++counters_.faultRamps;
}

bool
FleetShard::admit(Tick queueDepth)
{
    // Tighten the gate as retirement eats capacity, but floor the
    // scale: the re-admission threshold must stay positive so a shard
    // with an empty queue always re-opens, no matter how degraded —
    // the end-of-run "every shard re-admitted" oracle relies on it.
    const double scale = std::max(0.25, 1.0 - degradedFraction());
    const Tick high = static_cast<Tick>(
        static_cast<double>(cfg_.shedHighTicks) * scale);
    const Tick low = static_cast<Tick>(
        static_cast<double>(cfg_.shedLowTicks) * scale);
    if (admitting_) {
        if (queueDepth > high)
            admitting_ = false;
    } else if (queueDepth <= low) {
        admitting_ = true;
    }
    return admitting_;
}

void
FleetShard::noteClientActivity(const ClientActivity &a)
{
    rig_.sys().controller().noteClientActivity(a);
}

double
FleetShard::degradedFraction()
{
    return rig_.sys().controller().gauges().degradedFraction;
}

} // namespace hoopnvm
