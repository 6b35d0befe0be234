#include "baselines/redo_controller.hh"

#include <algorithm>

#include "analysis/ordering_tracker.hh"
#include "common/logging.hh"

namespace hoopnvm
{

RedoController::RedoController(NvmDevice &nvm, const SystemConfig &cfg_)
    : LogController("redo", nvm, cfg_, cfg_.auxBase(), cfg_.auxBytes),
      logEntriesC_(stats_.counter("log_entries")),
      commitRecordsC_(stats_.counter("commit_records")),
      checkpointWritesC_(stats_.counter("checkpoint_writes")),
      evictionsAbsorbedC_(stats_.counter("evictions_absorbed")),
      truncationsC_(stats_.counter("truncations"))
{
}

void
RedoController::declareOrderingRules(OrderingTracker &t)
{
    t.rule("redo-commit-record")
        .requiresDurable("every redo entry and the commit record of an "
                         "acknowledged transaction");
    t.rule("redo-log-truncate")
        .requiresSettled("asynchronous checkpoint writes before the log "
                         "entries that redo them are truncated");
    LogController::declareOrderingRules(t);
}

Tick
RedoController::storeWord(CoreId core, Addr addr,
                          const std::uint8_t *data, Tick)
{
    writes_.stage(core, addr, data);
    return kCycle;
}

Tick
RedoController::txEnd(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "txEnd without txBegin");
    const TxId tx = coreTx[core].txId;
    const std::uint64_t cid = allocCommitId();
    // Address order: log append order is observable durable state.
    const TxWriteSet::Lines &writes = writes_.sortedLines(core);
    Tick t = now;

    // Stream one redo entry per modified line (data + metadata line).
    for (const auto &[line, img] : writes) {
        if (log_.full())
            t = std::max(t, stallForLogSpace(t));
        LogEntry e;
        e.type = LogEntryType::RedoData;
        e.txId = tx;
        e.commitId = cid;
        e.line = line;
        e.mask = img.mask;
        e.words = img.words;
        t = std::max(t, log_.append(now, e));
        orderDep("redo-commit-record", tx);
        // WrAP's per-update metadata occupies a second cache line.
        nvm_.writeAccounting(now, kCacheLineSize);
        ++logEntriesC_;
    }

    // Commit record makes the transaction durable.
    if (!writes.empty()) {
        t = appendCommitRecord("redo-commit-record", tx, cid, now, t);
        ++commitRecordsC_;

        // Asynchronous checkpointing (WrAP): each logged line is
        // retired to its home address in place. The commit does not
        // wait, but the double write consumes NVM bandwidth — the
        // scheme's fundamental cost (§II-B).
        for (const auto &[line, img] : writes) {
            // Crash point: between checkpoint (migration-home) writes.
            // The log still holds the full redo image, so recovery
            // redoes any torn checkpoint.
            crashStep(CrashPointKind::GcStep);
            std::uint8_t buf[kCacheLineSize];
            nvm_.peek(line, buf, kCacheLineSize);
            img.overlay(buf);
            nvm_.write(t, line, buf, kCacheLineSize);
            orderDep("redo-log-truncate", 0);
            ++checkpointWritesC_;
        }
        truncatableEntries += writes.size() + 1;
    }

    // debugEarlyCommitAck acknowledges at issue time while the log
    // appends are still in flight — the durable-by-ack rule must flag
    // every such commit (checker validation only).
    const Tick ack = cfg.debugEarlyCommitAck ? now : t;
    orderTrigger("redo-commit-record", tx, ack);
    writes_.end(core);
    coreTx[core] = CoreTxState{};
    ++txCommittedC_;
    return ack;
}

FillResult
RedoController::fillLine(CoreId, Addr line, std::uint8_t *buf, Tick now)
{
    FillResult fr;
    fr.completion = nvm_.read(now, line, buf, kCacheLineSize);
    // An evicted line of a still-running transaction: its newest words
    // exist only in the controller's transaction buffer.
    writes_.overlayFill(line, buf, fr);
    return fr;
}

void
RedoController::evictLine(CoreId, Addr line, const std::uint8_t *data,
                          bool persistent, TxId, std::uint8_t, Tick now)
{
    if (persistent) {
        // Transactional data is (or will be) durable via the log and
        // reaches home through checkpointing — never written here.
        ++evictionsAbsorbedC_;
        return;
    }
    nvm_.write(now, line, data, kCacheLineSize);
    ++homeWritebacksC_;
}

Tick
RedoController::reclaim(Tick now)
{
    if (truncatableEntries == 0)
        return now;
    // Crash point: before the tail moves. Entries about to be
    // truncated are already checkpointed home, so replaying them once
    // more after the crash is idempotent.
    crashStep(CrashPointKind::GcStep);
    // The checkpoint writes were issued asynchronously at commit time
    // and may still be in flight: once the tail moves past an entry,
    // its checkpointed home line is the ONLY durable copy, so the
    // channel must drain (checkpoints settled) before the superblock
    // write is issued. Without the drain a crash could tear a
    // checkpoint while the later superblock write survives, losing
    // committed data with no log entry left to redo it.
    const Tick drained = nvm_.drainFence(now);
    orderTrigger("redo-log-truncate", 0, drained);
    const Tick done = log_.truncate(drained, truncatableEntries);
    truncatableEntries = 0;
    ++truncationsC_;
    return done;
}

Tick
RedoController::drain(Tick now)
{
    return reclaim(now);
}

Tick
RedoController::recover(unsigned)
{
    // Replay committed transactions' redo images in commit order.
    const Tick t = replayCommitted(LogEntryType::RedoData, nsToTicks(40));
    truncatableEntries = 0;
    return t;
}

} // namespace hoopnvm
