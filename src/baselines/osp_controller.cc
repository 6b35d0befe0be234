#include "baselines/osp_controller.hh"

#include <algorithm>
#include <cstring>

#include "analysis/ordering_tracker.hh"
#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/**
 * Auxiliary-region layout for OSP:
 *   [auxBase, +homeBytes)            shadow copies
 *   [+homeBytes, +homeBytes/64)      selector table (1 byte per line)
 *   [rest]                           flip-record log
 */
Addr
ospLogBase(const SystemConfig &cfg)
{
    return cfg.auxBase() + cfg.homeBytes + cfg.homeBytes / kCacheLineSize;
}

std::uint64_t
ospLogBytes(const SystemConfig &cfg)
{
    const std::uint64_t used =
        cfg.homeBytes + cfg.homeBytes / kCacheLineSize;
    HOOP_ASSERT(cfg.auxBytes > used + miB(1),
                "auxBytes too small for OSP shadow + selector + log");
    return cfg.auxBytes - used;
}

} // namespace

OspController::OspController(NvmDevice &nvm, const SystemConfig &cfg_)
    : LogController("osp", nvm, cfg_, ospLogBase(cfg_),
                    ospLogBytes(cfg_)),
      selectorWritesC_(stats_.counter("selector_writes")),
      shadowWritesC_(stats_.counter("shadow_writes")),
      flipRecordsC_(stats_.counter("flip_records")),
      tlbShootdownsC_(stats_.counter("tlb_shootdowns")),
      consolidationCopiesC_(stats_.counter("consolidation_copies")),
      inactiveWritebacksC_(stats_.counter("inactive_writebacks"))
{
}

void
OspController::declareOrderingRules(OrderingTracker &t)
{
    t.rule("osp-flip-record")
        .requiresDurable("inactive-copy data writes and the flip "
                         "records of an acknowledged transaction");
    LogController::declareOrderingRules(t);
}

Addr
OspController::shadowOf(Addr line) const
{
    return cfg.auxBase() + line;
}

Addr
OspController::selectorAddr(Addr line) const
{
    return cfg.auxBase() + cfg.homeBytes + line / kCacheLineSize;
}

bool
OspController::shadowIsCurrent(Addr line) const
{
    return shadowCurrent.contains(line);
}

Addr
OspController::currentCopy(Addr line) const
{
    return shadowIsCurrent(line) ? shadowOf(line) : line;
}

Tick
OspController::storeWord(CoreId core, Addr addr,
                         const std::uint8_t *data, Tick)
{
    writes_.stage(core, addr, data);
    return kCycle;
}

Tick
OspController::applyFlips(Tick now, const std::vector<Addr> &lines)
{
    // Batch selector-byte updates per selector-table cache line.
    std::unordered_set<Addr> selector_lines;
    Tick last = now;
    for (Addr line : lines) {
        const std::uint8_t v = shadowCurrent.contains(line) ? 1 : 0;
        nvm_.poke(selectorAddr(line), &v, 1);
        selector_lines.insert(lineAddr(selectorAddr(line)));
    }
    // lint: unordered-iter-ok (commutative max-fold and count; the element value is unused)
    for (Addr sl : selector_lines) {
        last = std::max(last, nvm_.writeAccounting(now, kCacheLineSize));
        ++selectorWritesC_;
        (void)sl;
    }
    return last;
}

Tick
OspController::txEnd(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "txEnd without txBegin");
    const TxId tx = coreTx[core].txId;
    const std::uint64_t cid = allocCommitId();
    // Address order: shadow writes and the flip-record line order
    // derived from `flipped` are observable durable state.
    const TxWriteSet::Lines &writes = writes_.sortedLines(core);

    // 1. Eagerly persist each modified line into its inactive copy.
    Tick data_done = now;
    std::vector<Addr> flipped;
    flipped.reserve(writes.size());
    for (const auto &[line, img] : writes) {
        std::uint8_t buf[kCacheLineSize];
        nvm_.peek(currentCopy(line), buf, kCacheLineSize);
        img.overlay(buf);
        const Addr target =
            shadowIsCurrent(line) ? line : shadowOf(line);
        data_done = std::max(
            data_done, nvm_.write(now, target, buf, kCacheLineSize));
        orderDep("osp-flip-record", tx);
        flipped.push_back(line);
        ++shadowWritesC_;
    }

    if (writes.empty()) {
        coreTx[core] = CoreTxState{};
        ++txCommittedC_;
        return now;
    }

    // 2. Durable flip records make the multi-line commit atomic. Each
    // record stores up to 8 (line | new-selector) entries. The flip
    // log only truncates between transactions, so a full log here
    // cannot drain — reserve the whole burst upfront: recovery applies
    // every durable flip record independently, so rejecting after a
    // partial append would replay a half-flipped commit.
    const std::uint64_t recs = (flipped.size() + 7) / 8;
    if (!log_.canAppend(recs)) {
        ++logBackpressureStallsC_;
        // Degrade, don't die: no flip record was appended, so the old
        // copies stay live and the commit vanishes atomically.
        reject(RejectCause::LogExhausted,
               "osp flip log wedged by open transactions; increase "
               "auxBytes");
    }
    Tick rec_done = data_done;
    for (std::size_t i = 0; i < flipped.size(); i += 8) {
        LogEntry e;
        e.type = LogEntryType::OspRecord;
        e.txId = tx;
        e.commitId = cid;
        e.count = static_cast<std::uint8_t>(
            std::min<std::size_t>(8, flipped.size() - i));
        for (unsigned j = 0; j < e.count; ++j) {
            const Addr line = flipped[i + j];
            const std::uint64_t new_sel = shadowIsCurrent(line) ? 0 : 1;
            e.words[j] = line | new_sel;
        }
        rec_done = std::max(rec_done, log_.append(data_done, e));
        orderDep("osp-flip-record", tx);
        ++flipRecordsC_;
    }

    // The commit is durable once every inactive-copy write and flip
    // record is on NVM — rec_done bounds them all (records are issued
    // after the data on the same channel). debugEarlyCommitAck claims
    // durability at issue time instead (checker validation only).
    orderTrigger("osp-flip-record", tx,
                 cfg.debugEarlyCommitAck ? now : rec_done);

    // 3. Apply the flips (selector table) and pay the TLB shootdown.
    for (Addr line : flipped) {
        if (!shadowCurrent.erase(line))
            shadowCurrent.insert(line);
    }
    Tick done = applyFlips(rec_done, flipped);
    done += kTlbShootdownCost;
    ++tlbShootdownsC_;

    // Page consolidation (§IV-B): SSP periodically re-packs split
    // line pairs to recover spatial efficiency, copying data between
    // the two physical copies in the background.
    if (++commitsSinceConsolidation >= 8) {
        commitsSinceConsolidation = 0;
        std::uint64_t copied = 0;
        for ([[maybe_unused]] Addr line : flipped) {
            // Crash point: between background consolidation copies
            // (OSP's migration analog — both physical copies stay
            // valid throughout).
            crashStep(CrashPointKind::GcStep);
            nvm_.readAccounting(done, kCacheLineSize);
            nvm_.writeAccounting(done, kCacheLineSize);
            if (++copied >= 8)
                break;
        }
        consolidationCopiesC_ += copied;
    }

    writes_.end(core);
    coreTx[core] = CoreTxState{};
    ++txCommittedC_;
    return done;
}

FillResult
OspController::fillLine(CoreId, Addr line, std::uint8_t *buf, Tick now)
{
    FillResult fr;
    fr.completion =
        nvm_.read(now, currentCopy(line), buf, kCacheLineSize);

    // Overlay any open transaction's buffered words (covers the case
    // where the line was evicted mid-transaction).
    writes_.overlayFill(line, buf, fr);
    return fr;
}

void
OspController::evictLine(CoreId, Addr line, const std::uint8_t *data,
                         bool persistent, TxId, std::uint8_t, Tick now)
{
    if (persistent) {
        if (writes_.contains(line)) {
            // Uncommitted data parks in the inactive copy; the old copy
            // stays intact for crash safety.
            const Addr target =
                shadowIsCurrent(line) ? line : shadowOf(line);
            nvm_.write(now, target, data, kCacheLineSize);
            ++inactiveWritebacksC_;
        }
        // Committed content matches the current copy already (it was
        // eagerly flushed at commit); dropping it costs nothing.
        return;
    }
    nvm_.write(now, currentCopy(line), data, kCacheLineSize);
    ++homeWritebacksC_;
}

Tick
OspController::reclaim(Tick now)
{
    // Flip records are applied synchronously at commit, so between
    // transactions the whole record log is dead: every live record was
    // already applied to the durable selector table, and re-applying
    // one is idempotent.
    truncateIdleLog(now);
    return now;
}

void
OspController::maintenance(Tick now)
{
    reclaim(now);
}

void
OspController::crash()
{
    LogController::crash();
    // shadowCurrent mirrors the durable selector table; recovery will
    // rebuild it from NVM.
    shadowCurrent.clear();
}

Tick
OspController::recover(unsigned)
{
    // Adopt the durable slot-retirement bitmap before the scan: retired
    // slots are burned, not read — their garbage would cut the suffix.
    log_.loadRetirement();
    // 1. Rebuild the selector view from the durable table.
    shadowCurrent.clear();
    const std::uint64_t n_lines = cfg.homeBytes / kCacheLineSize;
    const Addr table = cfg.auxBase() + cfg.homeBytes;
    std::vector<std::uint8_t> chunk(4096);
    for (std::uint64_t off = 0; off < n_lines;
         off += chunk.size()) {
        // Crash point: during the read-only selector-table rebuild.
        crashStep(CrashPointKind::RecoveryStep);
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.size(), n_lines - off));
        // Most of the table was never written. Such a chunk, when no
        // media fault covers it, peeks as all zeros: no shadow is
        // current there.
        if (!nvm_.backed(table + off, n) &&
            !nvm_.faults().mediaFaultyRange(table + off, n))
            continue;
        nvm_.peek(table + off, chunk.data(), n);
        for (std::size_t w = 0; w < n; w += kWordSize) {
            // Few lines ever flip: a word of clear selectors is
            // skipped at once.
            const std::size_t len = std::min<std::size_t>(kWordSize, n - w);
            std::uint64_t word = 0;
            std::memcpy(&word, &chunk[w], len);
            if (word == 0)
                continue;
            for (std::size_t i = w; i < w + len; ++i) {
                if (chunk[i])
                    shadowCurrent.insert((off + i) * kCacheLineSize);
            }
        }
    }

    // 2. Re-apply flips of committed records (idempotent: records store
    // absolute selector values, and data was durable before the record).
    std::uint64_t entries = 0;
    log_.scan([&](const LogEntry &e) {
        ++entries;
        if (e.type != LogEntryType::OspRecord)
            return;
        // Crash point: between flip-record re-applications. Records
        // hold absolute selector values and survive until the clear
        // below, so a second recovery converges to the same table.
        crashStep(CrashPointKind::RecoveryStep);
        for (unsigned j = 0; j < e.count; ++j) {
            const Addr line = e.words[j] & ~std::uint64_t{1};
            const bool to_shadow = (e.words[j] & 1) != 0;
            const std::uint8_t v = to_shadow ? 1 : 0;
            nvm_.poke(selectorAddr(line), &v, 1);
            if (to_shadow)
                shadowCurrent.insert(line);
            else
                shadowCurrent.erase(line);
        }
    });
    // Crash point: flips re-applied, log not yet cleared.
    crashStep(CrashPointKind::RecoveryStep);
    log_.clear(0);
    recoveriesC_ += 1;

    const Tick channel = nvm_.timing().transferTicks(
        n_lines + entries * LogEntry::kEntryBytes);
    return channel + entries * nsToTicks(40);
}

void
OspController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    nvm_.peek(currentCopy(line), buf, kCacheLineSize);
    writes_.overlay(line, buf);
}

} // namespace hoopnvm
