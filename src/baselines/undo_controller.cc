#include "baselines/undo_controller.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "analysis/ordering_tracker.hh"
#include "common/logging.hh"

namespace hoopnvm
{

UndoController::UndoController(NvmDevice &nvm, const SystemConfig &cfg_)
    : LogController("undo", nvm, cfg_, cfg_.auxBase(), cfg_.auxBytes),
      outstanding(cfg_.numCores, 0),
      logEntriesC_(stats_.counter("log_entries")),
      commitFlushesC_(stats_.counter("commit_flushes")),
      commitRecordsC_(stats_.counter("commit_records"))
{
}

void
UndoController::declareOrderingRules(OrderingTracker &t)
{
    t.rule("undo-home-write")
        .requiresIssued("the line's undo pre-image entry before any "
                        "in-place write of an open transaction's line");
    t.rule("undo-commit-record")
        .requiresDurable("in-place data flushes and the commit record "
                         "of an acknowledged transaction");
    LogController::declareOrderingRules(t);
}

TxId
UndoController::txBegin(CoreId core, Tick now)
{
    const TxId tx = LogController::txBegin(core, now);
    outstanding[core] = now;
    return tx;
}

Tick
UndoController::storeWord(CoreId core, Addr addr,
                          const std::uint8_t *data, Tick now)
{
    const Addr line = lineAddr(addr);
    // First touch: capture the old image and append the undo entry
    // before any in-place update may reach the home region. ATOM
    // enforces the ordering in the controller, so the store itself is
    // not delayed; the commit waits for the log instead.
    // debugSkipUndoLog drops the entry, breaking write-ahead logging so
    // the issued-before-trigger rule can be validated.
    if (!cfg.debugSkipUndoLog && !writes_.staged(core, line)) {
        if (log_.full())
            stallForLogSpace(now);
        std::uint8_t old_line[kCacheLineSize];
        nvm_.read(now, line, old_line, kCacheLineSize);
        LogEntry e;
        e.type = LogEntryType::UndoImage;
        e.txId = coreTx[core].txId;
        e.line = line;
        e.mask = 0xff;
        std::memcpy(e.words.data(), old_line, kCacheLineSize);
        outstanding[core] =
            std::max(outstanding[core], log_.append(now, e));
        orderDep("undo-home-write", line);
        // Metadata companion line of the undo entry.
        nvm_.writeAccounting(now, kCacheLineSize);
        ++logEntriesC_;
    }
    writes_.stage(core, addr, data);
    return kCycle;
}

Tick
UndoController::txEnd(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "txEnd without txBegin");
    const TxId tx = coreTx[core].txId;
    const std::uint64_t cid = allocCommitId();
    const TxWriteSet::Lines &writes = writes_.sortedLines(core);

    // Undo logging must make every data update durable in place before
    // the commit record retires the log — the strict persist ordering
    // that stretches the critical path (Fig. 4a).
    Tick t = std::max(now, outstanding[core]);
    Tick data_done = t;
    for (const auto &[line, img] : writes) {
        std::uint8_t buf[kCacheLineSize];
        nvm_.peek(line, buf, kCacheLineSize);
        img.overlay(buf);
        data_done = std::max(
            data_done, nvm_.write(t, line, buf, kCacheLineSize));
        orderDep("undo-commit-record", tx);
        orderTrigger("undo-home-write", line, 0, 1, false);
        ++commitFlushesC_;
    }

    Tick commit_done = data_done;
    if (!writes.empty()) {
        commit_done = appendCommitRecord("undo-commit-record", tx, cid,
                                         data_done, data_done);
        ++commitRecordsC_;
    }

    // debugEarlyCommitAck acknowledges at issue time while the flushes
    // and the record are still in flight (checker validation only).
    const Tick ack = cfg.debugEarlyCommitAck ? now : commit_done;
    orderTrigger("undo-commit-record", tx, ack);
    writes_.end(core);
    coreTx[core] = CoreTxState{};
    ++txCommittedC_;
    return ack;
}

FillResult
UndoController::fillLine(CoreId, Addr line, std::uint8_t *buf, Tick now)
{
    // In-place updates: the home region is always current (evictions
    // and commit flushes both land there), so reads are cheap.
    FillResult fr;
    fr.completion = nvm_.read(now, line, buf, kCacheLineSize);
    return fr;
}

void
UndoController::evictLine(CoreId, Addr line, const std::uint8_t *data,
                          bool, TxId, std::uint8_t, Tick now)
{
    // In-place writeback is always legal: the undo entry for any
    // uncommitted content was persisted before the first store.
    if (ordering() && writes_.contains(line))
        orderTrigger("undo-home-write", line, 0, 1, false);
    nvm_.write(now, line, data, kCacheLineSize);
    ++homeWritebacksC_;
}

Tick
UndoController::reclaim(Tick now)
{
    // Between transactions every live entry belongs to a committed
    // transaction whose data was flushed in place at commit, so the
    // whole log is dead. With a transaction open, truncation waits.
    if (truncateIdleLog(now)) {
        // The truncated entries' pre-images are gone; retire their
        // write-ahead obligations (all owners have committed).
        orderClear("undo-home-write");
    }
    return now;
}

Tick
UndoController::recover(unsigned)
{
    // Adopt the durable slot-retirement bitmap before the scan: retired
    // slots are burned, not read — their garbage would cut the suffix.
    log_.loadRetirement();
    // Roll back every transaction without a commit record by applying
    // its old images newest-first.
    std::unordered_set<TxId> has_record;
    std::vector<LogEntry> images;
    std::uint64_t entries = 0;
    log_.scan([&](const LogEntry &e) {
        ++entries;
        if (e.type == LogEntryType::Commit)
            has_record.insert(e.txId);
        else if (e.type == LogEntryType::UndoImage)
            images.push_back(e);
    });

    std::uint64_t lines = 0;
    for (auto it = images.rbegin(); it != images.rend(); ++it) {
        if (has_record.contains(it->txId))
            continue; // committed: keep the in-place data
        // Crash point: between rollback writes. Pre-images are
        // absolute and the log survives until the clear below, so a
        // second recovery reapplies them idempotently.
        crashStep(CrashPointKind::RecoveryStep);
        nvm_.poke(it->line, it->words.data(), kCacheLineSize);
        ++lines;
    }
    // Crash point: rollback done, log not yet cleared.
    crashStep(CrashPointKind::RecoveryStep);
    log_.clear(0);
    recoveriesC_ += 1;

    const Tick channel = nvm_.timing().transferTicks(
        entries * LogEntry::kEntryBytes + lines * kCacheLineSize);
    return channel + entries * nsToTicks(40);
}

} // namespace hoopnvm
