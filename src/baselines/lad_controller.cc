#include "baselines/lad_controller.hh"

#include "analysis/ordering_tracker.hh"
#include "common/logging.hh"

namespace hoopnvm
{

LadController::LadController(NvmDevice &nvm, const SystemConfig &cfg_)
    : PersistenceController("lad", nvm, cfg_),
      writes_(cfg_.numCores),
      queueInsertCost(4 * cfg_.cycle()),
      queueDrainsC_(stats_.counter("queue_drains")),
      txCommittedC_(stats_.counter("tx_committed")),
      evictionsAbsorbedC_(stats_.counter("evictions_absorbed")),
      homeWritebacksC_(stats_.counter("home_writebacks")),
      recoveriesC_(stats_.counter("recoveries"))
{
}

void
LadController::declareOrderingRules(OrderingTracker &t)
{
    t.rule("lad-commit-drain")
        .requiresSettled("every committed line inside the ADR domain "
                         "(battery-drained) before the commit ack");
}

TxId
LadController::txBegin(CoreId core, Tick now)
{
    const TxId tx = PersistenceController::txBegin(core, now);
    writes_.begin(core, tx);
    return tx;
}

Tick
LadController::storeWord(CoreId core, Addr addr,
                         const std::uint8_t *data, Tick)
{
    writes_.stage(core, addr, data);
    return cfg.cycle();
}

Tick
LadController::txEnd(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "txEnd without txBegin");
    // Address order: queue drain order is observable durable state.
    const TxWriteSet::Lines &writes = writes_.sortedLines(core);

    // Commit = the updated lines are persisted at cache-line
    // granularity through the controller queues (§IV-C: LAD "still
    // persists data at cache-line granularity upon transaction
    // commits"), so the transaction waits for those writes.
    // Prepare/commit handshake with the controller (the two-phase
    // protocol LAD uses to make queue contents the durability point).
    Tick t = now + (writes.empty() ? 0 : cfg.ladCommitOverhead);
    for (const auto &[line, img] : writes) {
        t += queueInsertCost;
        std::uint8_t buf[kCacheLineSize];
        nvm_.peek(line, buf, kCacheLineSize);
        img.overlay(buf);
        t = std::max(t, nvm_.write(now, line, buf, kCacheLineSize));
        orderDep("lad-commit-drain", coreTx[core].txId);
        ++queueDrainsC_;
    }

    // The controller queues sit inside the ADR persistence domain:
    // once the drain writes are queued, the battery guarantees they
    // reach the media in full even across power loss. Settle them in
    // the fault model so a later crash can never tear a committed
    // drain — without this, LAD's whole durability argument is void.
    if (!writes.empty()) {
        const Tick drained = nvm_.drainFence(t);
        if (!cfg.debugSkipSettleFences)
            nvm_.faults().settleUpTo(drained);
        orderTrigger("lad-commit-drain", coreTx[core].txId, drained);
    }

    // Crash point: the ADR queue-drain boundary. The whole drain is
    // the durability domain (battery-backed queues complete it across
    // power loss), so the hook fires once after the full drain rather
    // than between lines — a mid-drain cut would model a failure mode
    // LAD's hardware guarantees cannot produce.
    if (!writes.empty())
        crashStep(CrashPointKind::GcStep);

    writes_.end(core);
    coreTx[core] = CoreTxState{};
    ++txCommittedC_;
    return t;
}

FillResult
LadController::fillLine(CoreId, Addr line, std::uint8_t *buf, Tick now)
{
    FillResult fr;
    fr.completion = nvm_.read(now, line, buf, kCacheLineSize);

    // An evicted line of a running transaction: overlay staged words.
    writes_.overlayFill(line, buf, fr);
    return fr;
}

void
LadController::evictLine(CoreId, Addr line, const std::uint8_t *data,
                         bool persistent, TxId, std::uint8_t, Tick now)
{
    if (persistent) {
        // Committed words already drained home; uncommitted words are
        // staged in the controller — nothing to write.
        ++evictionsAbsorbedC_;
        return;
    }
    nvm_.write(now, line, data, kCacheLineSize);
    ++homeWritebacksC_;
}

ControllerGauges
LadController::sampleGauges() const
{
    // LAD's only persistence structure is the staged write set of each
    // open transaction (the controller's persistent queues).
    ControllerGauges g;
    g.mappingEntries = writes_.size();
    g.structBytes = g.mappingEntries * kCacheLineSize;
    return g;
}

void
LadController::crash()
{
    // Uncommitted staging buffers vanish; the persistent queue already
    // drained its committed lines to the home region.
    writes_.clear();
    for (auto &t : coreTx)
        t = CoreTxState{};
}

Tick
LadController::recover(unsigned)
{
    // Nothing to replay: the ADR drain left the home region consistent.
    // Crash point: trivially idempotent (recovery is a no-op).
    crashStep(CrashPointKind::RecoveryStep);
    recoveriesC_ += 1;
    return nsToTicks(100);
}

void
LadController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    nvm_.peek(line, buf, kCacheLineSize);
    writes_.overlay(line, buf);
}

} // namespace hoopnvm
