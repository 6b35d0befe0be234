#include "baselines/lsm_controller.hh"

#include <algorithm>

#include "analysis/ordering_tracker.hh"
#include "common/flat_map.hh"
#include "common/logging.hh"

namespace hoopnvm
{

LsmController::LsmController(NvmDevice &nvm, const SystemConfig &cfg_)
    : LogController("lsm", nvm, cfg_, cfg_.auxBase(), cfg_.auxBytes),
      indexWalksC_(stats_.counter("index_walks")),
      logEntriesC_(stats_.counter("log_entries")),
      commitRecordsC_(stats_.counter("commit_records")),
      logReadsC_(stats_.counter("log_reads")),
      evictionsAbsorbedC_(stats_.counter("evictions_absorbed")),
      gcRunsC_(stats_.counter("gc_runs")),
      migratedLinesC_(stats_.counter("migrated_lines"))
{
}

Tick
LsmController::indexWalkCost() const
{
    // O(log N) DRAM pointer chases plus software bookkeeping cycles;
    // the upper skip-list levels stay cached, so only a fraction of
    // the tower height costs a DRAM access.
    const unsigned hops = index_.height() / 5 + 2;
    return kIndexCycles * kCycle + hops * kDramLatency;
}

void
LsmController::declareOrderingRules(OrderingTracker &t)
{
    t.rule("lsm-commit-record")
        .requiresDurable("every log extent and the commit record of an "
                         "acknowledged transaction");
    t.rule("lsm-log-truncate")
        .requiresSettled("home-migration writes before the log entries "
                         "that redo them are truncated");
    LogController::declareOrderingRules(t);
}

Tick
LsmController::storeWord(CoreId core, Addr addr,
                         const std::uint8_t *data, Tick)
{
    // Software write-path bookkeeping (allocation, index preparation)
    // is paid once per appended extent, i.e. per line.
    return writes_.stage(core, addr, data)
               ? kIndexCycles * kCycle
               : 0;
}

Tick
LsmController::loadOverhead(CoreId, Addr, Tick)
{
    // Every load translates through the DRAM-cached skip list.
    ++indexWalksC_;
    return indexWalkCost();
}

Tick
LsmController::txEnd(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "txEnd without txBegin");
    const TxId tx = coreTx[core].txId;
    const std::uint64_t cid = allocCommitId();
    // Address order: log append order is observable durable state.
    const TxWriteSet::Lines &writes = writes_.sortedLines(core);

    Tick t = now;
    for (const auto &[line, staged] : writes) {
        if (log_.full())
            t = std::max(t, stallForLogSpace(t));
        // Fold into the cumulative live image so one entry per line is
        // always sufficient to reconstruct the newest data.
        LineImage &img = liveImage[line];
        img.merge(staged);

        LogEntry e;
        e.type = LogEntryType::LsmData;
        e.txId = tx;
        e.commitId = cid;
        e.line = line;
        e.mask = img.mask;
        e.words = img.words;
        t = std::max(t, log_.append(now, e));
        orderDep("lsm-commit-record", tx);
        index_.insert(line, logicalEntryIdx++);
        ++logEntriesC_;
    }

    if (!writes.empty()) {
        t = appendCommitRecord("lsm-commit-record", tx, cid, now, t);
        ++commitRecordsC_;
    }

    // debugEarlyCommitAck acknowledges at issue time while the log
    // appends are still in flight (checker validation only).
    const Tick ack = cfg.debugEarlyCommitAck ? now : t;
    orderTrigger("lsm-commit-record", tx, ack);
    writes_.end(core);
    coreTx[core] = CoreTxState{};
    ++txCommittedC_;
    return ack;
}

FillResult
LsmController::fillLine(CoreId, Addr line, std::uint8_t *buf, Tick now)
{
    FillResult fr;
    fr.completion = nvm_.read(now, line, buf, kCacheLineSize);

    std::uint8_t mask = 0;
    auto lit = liveImage.find(line);
    if (lit != liveImage.end()) {
        // The newest version lives in the log: extra log read.
        lit->second.overlay(buf);
        mask = lit->second.mask;
        fr.completion = std::max(
            fr.completion,
            nvm_.readAccounting(now, LogEntry::kEntryBytes));
        ++logReadsC_;
    }
    writes_.overlayFill(line, buf, fr, mask);
    return fr;
}

void
LsmController::evictLine(CoreId, Addr line, const std::uint8_t *data,
                         bool persistent, TxId, std::uint8_t, Tick now)
{
    if (persistent) {
        // The log and live-image map already hold this data.
        ++evictionsAbsorbedC_;
        return;
    }
    nvm_.write(now, line, data, kCacheLineSize);
    ++homeWritebacksC_;
}

Tick
LsmController::reclaim(Tick now)
{
    // Cannot truncate while a transaction's entries are still
    // uncommitted in the log tail.
    if (anyTxOpen())
        return now;
    if (liveImage.empty() && log_.size() == 0)
        return now;
    ++gcRunsC_;

    Tick last = now;
    for (const Addr line : sortedKeys(liveImage)) {
        // Crash point: between home-migration writes. The log keeps
        // every migrated image until the truncate below, so recovery
        // redoes torn migrations from the log.
        crashStep(CrashPointKind::GcStep);
        std::uint8_t buf[kCacheLineSize];
        nvm_.read(now, line, buf, kCacheLineSize);
        liveImage.at(line).overlay(buf);
        last = std::max(last,
                        nvm_.write(now, line, buf, kCacheLineSize));
        orderDep("lsm-log-truncate", 0);
        index_.erase(line);
        ++migratedLinesC_;
    }
    liveImage.clear();
    if (log_.size() > 0) {
        // Crash point: migration done, log tail not yet moved.
        crashStep(CrashPointKind::GcStep);
        // The truncation superblock write must not race the migration
        // writes above: if a migration tears while the truncation
        // survives, the log no longer holds the only good copy. Drain
        // the channel and settle the migrations first.
        const Tick drained = nvm_.drainFence(last);
        orderTrigger("lsm-log-truncate", 0, drained);
        last = std::max(last, log_.truncate(drained, log_.size()));
    }
    return last;
}

ControllerGauges
LsmController::sampleGauges() const
{
    ControllerGauges g = LogController::sampleGauges();
    g.mappingEntries = index_.size();
    return g;
}

Tick
LsmController::drain(Tick now)
{
    return reclaim(now);
}

void
LsmController::crash()
{
    LogController::crash();
    liveImage.clear();
    index_.clear();
}

Tick
LsmController::recover(unsigned)
{
    // Apply committed cumulative images in commit order.
    const Tick t = replayCommitted(LogEntryType::LsmData, nsToTicks(60));
    liveImage.clear();
    index_.clear();
    return t;
}

void
LsmController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    nvm_.peek(line, buf, kCacheLineSize);
    auto lit = liveImage.find(line);
    if (lit != liveImage.end())
        lit->second.overlay(buf);
    writes_.overlay(line, buf);
}

} // namespace hoopnvm
