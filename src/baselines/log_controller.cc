#include "baselines/log_controller.hh"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "analysis/ordering_tracker.hh"

namespace hoopnvm
{

LogController::LogController(const std::string &name, NvmDevice &nvm,
                             const SystemConfig &cfg_, Addr log_base,
                             std::uint64_t log_bytes)
    : PersistenceController(name, nvm, cfg_),
      log_(nvm, log_base, log_bytes, &cfg_),
      writes_(cfg_.numCores),
      txCommittedC_(stats_.counter("tx_committed")),
      homeWritebacksC_(stats_.counter("home_writebacks")),
      logBackpressureStallsC_(
          stats_.counter("log_backpressure_stalls")),
      txRejectedC_(stats_.counter("tx_rejected")),
      scrubCorrectedC_(stats_.counter("scrub_corrected_words")),
      scrubPassesC_(stats_.counter("scrub_passes")),
      scrubPauseH_(stats_.histogram("scrub_pause_ticks")),
      recoveriesC_(stats_.counter("recoveries"))
{
}

void
LogController::declareOrderingRules(OrderingTracker &t)
{
    // Declared only when the subsystem can fire it: a rule that cannot
    // fire would (correctly) be reported dead by clean-run sweeps.
    if (cfg.ft.enabled) {
        t.rule("log-retire-bitmap")
            .requiresSettled("the durable slot-retirement bitmap before "
                             "the retirement is acted upon");
    }
}

void
LogController::setOrderingTracker(OrderingTracker *t)
{
    PersistenceController::setOrderingTracker(t);
    log_.setOrdering(t);
}

TxId
LogController::txBegin(CoreId core, Tick now)
{
    // Graceful degradation: once slot retirement has eaten past the
    // configured fraction of the log ring, stop admitting transactions
    // (ENOSPC-style) instead of wedging mid-commit.
    if (cfg.ft.enabled &&
        log_.degradedFraction() >= cfg.ft.rejectCapacityFraction) {
        reject(RejectCause::CapacityDegraded,
               "log degraded past the admission threshold by bad-slot "
               "retirement");
    }
    const TxId tx = PersistenceController::txBegin(core, now);
    writes_.begin(core, tx);
    return tx;
}

void
LogController::reject(RejectCause cause, const char *detail)
{
    txRejectedC_ += 1;
    throw TxRejected{cause, detail};
}

bool
LogController::anyTxOpen() const
{
    return std::any_of(coreTx.begin(), coreTx.end(),
                       [](const CoreTxState &s) { return s.active; });
}

bool
LogController::truncateIdleLog(Tick now)
{
    if (anyTxOpen() || log_.size() == 0)
        return false;
    // Crash point: before the tail moves. Every live entry belongs to
    // a committed transaction that recovery would leave as it is.
    crashStep(CrashPointKind::GcStep);
    log_.truncate(now, log_.size());
    return true;
}

Tick
LogController::stallForLogSpace(Tick now)
{
    ++logBackpressureStallsC_;
    const Tick done = reclaim(now);
    if (log_.full()) {
        // Degrade, don't die: the offending transaction carries no
        // commit record, so crash+recovery discards (Opt-Undo: rolls
        // back) it whole.
        reject(RejectCause::LogExhausted,
               "log full and a reclaim step freed nothing; increase "
               "auxBytes");
    }
    return done;
}

Tick
LogController::appendCommitRecord(const char *rule, TxId tx,
                                  std::uint64_t cid, Tick issue, Tick t)
{
    if (log_.full())
        t = std::max(t, stallForLogSpace(t));
    LogEntry rec;
    rec.type = LogEntryType::Commit;
    rec.txId = tx;
    rec.commitId = cid;
    rec.mask = 1;
    t = std::max(t, log_.append(issue, rec));
    orderDep(rule, tx);
    return t;
}

void
LogController::maintenance(Tick now)
{
    if (now - lastReclaim_ >= cfg.gcPeriod || logPressured()) {
        lastReclaim_ = now;
        reclaim(now);
    }
}

Tick
LogController::scrub(Tick now)
{
    std::uint64_t corrected = 0;
    const Tick done =
        log_.scrubSlots(now, kScrubChunks, &corrected);
    scrubCorrectedC_ += corrected;
    scrubPassesC_ += 1;
    scrubPauseH_.record(done - now);
    return done;
}

ControllerGauges
LogController::sampleGauges() const
{
    ControllerGauges g;
    g.mappingEntries = log_.size();
    g.structBytes = log_.size() * LogEntry::kEntryBytes;
    g.backpressureStalls = logBackpressureStallsC_.value();
    if (log_.faultToleranceEnabled()) {
        g.retiredUnits = log_.retiredSlots();
        g.correctedWords = nvm_.faults().wordsEccCorrected();
        g.degradedFraction = log_.degradedFraction();
    }
    g.txRejected = txRejectedC_.value();
    return g;
}

void
LogController::crash()
{
    writes_.clear();
    for (auto &t : coreTx)
        t = CoreTxState{};
}

void
LogController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    nvm_.peek(line, buf, kCacheLineSize);
    writes_.overlay(line, buf);
}

Tick
LogController::replayCommitted(LogEntryType type, Tick per_entry)
{
    // Adopt the durable slot-retirement bitmap before the scan: retired
    // slots are burned, not read — their garbage would cut the suffix.
    log_.loadRetirement();
    std::map<std::uint64_t, std::vector<LogEntry>> by_commit;
    std::unordered_set<TxId> has_record;
    std::uint64_t entries = 0;
    log_.scan([&](const LogEntry &e) {
        ++entries;
        if (e.type == LogEntryType::Commit)
            has_record.insert(e.txId);
        else if (e.type == type)
            by_commit[e.commitId].push_back(e);
    });

    std::uint64_t lines = 0;
    for (const auto &kv : by_commit) {
        for (const LogEntry &e : kv.second) {
            if (!has_record.contains(e.txId))
                continue; // uncommitted: discard
            // Crash point: between replay writes. The log is cleared
            // only after the loop, so a second recovery replays the
            // same committed images idempotently.
            crashStep(CrashPointKind::RecoveryStep);
            std::uint8_t buf[kCacheLineSize];
            nvm_.peek(e.line, buf, kCacheLineSize);
            LineImage img;
            img.mask = e.mask;
            img.words = e.words;
            img.overlay(buf);
            nvm_.poke(e.line, buf, kCacheLineSize);
            ++lines;
        }
    }
    // Crash point: replay done, log not yet cleared — re-entering
    // recovery replays everything again with the same result.
    crashStep(CrashPointKind::RecoveryStep);
    log_.clear(0);
    recoveriesC_ += 1;

    // Single-threaded log replay, channel-bound plus per-entry work.
    const Tick channel = nvm_.timing().transferTicks(
        entries * LogEntry::kEntryBytes + lines * kCacheLineSize);
    return channel + entries * per_entry;
}

} // namespace hoopnvm
