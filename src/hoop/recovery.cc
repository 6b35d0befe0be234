#include "hoop/recovery.hh"

#include <algorithm>
#include <vector>

#include "common/flat_map.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "hoop/hoop_controller.hh"
#include "hoop/line_coalescer.hh"
#include "stats/trace.hh"

namespace hoopnvm
{

namespace
{

/** Per-transaction replay bookkeeping accumulated by the phase-1
 *  scan: commit-record contents plus the Data-slice census the chain-
 *  completeness check compares against. */
struct TxInfo
{
    std::uint32_t expected = 0;
    std::uint32_t found = 0;
    std::uint64_t commitSeq = 0;
    bool committed = false;
};

/** Merge bucket of home line @p line (RecoveryManager::kMergeBuckets). */
unsigned
mergeBucket(Addr line)
{
    return static_cast<unsigned>(mixHash(line / kCacheLineSize) %
                                 RecoveryManager::kMergeBuckets);
}

} // namespace

RecoveryManager::RecoveryManager(HoopController &ctrl_)
    : ctrl(ctrl_), stats_("recovery"), runsC_(stats_.counter("runs")),
      txReplayedC_(stats_.counter("tx_replayed")),
      linesWrittenC_(stats_.counter("lines_written")),
      slicesRejectedC_(stats_.counter("slices_rejected")),
      tornCommitsC_(stats_.counter("torn_commits_detected")),
      bitFlipsC_(stats_.counter("bit_flips_detected")),
      headersRejectedC_(stats_.counter("headers_rejected")),
      blocksSkippedWatermarkC_(
          stats_.counter("blocks_skipped_by_watermark")),
      incompleteTxVetoedC_(stats_.counter("incomplete_tx_vetoed")),
      gcTrimmedTxReplayedC_(stats_.counter("gc_trimmed_tx_replayed")),
      blocksSkippedRetiredC_(stats_.counter("blocks_skipped_retired")),
      slicesSkippedBadC_(stats_.counter("slices_skipped_bad"))
{
}

RecoveryResult
RecoveryManager::run(unsigned threads)
{
    OopRegion &region = ctrl.region_;
    RecoveryResult res;

    // ---- Phase 1: locate live blocks and commit records, using only
    // durable NVM state (block headers + address slices). Slices are
    // appended in sequence order, so a stale, invalid or corrupt slice
    // ends a block's live area. Nothing is trusted without its CRC: a
    // commit record that fails its CRC never enters the committed set,
    // and a committed transaction that may have lost chain slices to
    // corruption is dropped whole — recovery must never surface a
    // partial transaction. ----
    // Word-carrying slices the phase-1 scan accepted, in scan order.
    // Phase 2 replays straight from this cache instead of re-reading
    // and re-CRC-checking every slice off the device: acceptance
    // already proved crcOk, and the slots a second scan would read but
    // phase 1 did not accept (program-verify-skipped bad slots) fail
    // their CRC there too, so the cached set IS phase 2's working set.
    // The region is read once, and the timing model charges it once.
    std::vector<MemorySlice> replayable;
    // Reserve up to the region's slot count (the hard upper bound on
    // accepted slices), capped so a huge sparsely-filled region does
    // not commit gigabytes up front — beyond the cap growth falls
    // back to the usual geometric schedule.
    replayable.reserve(std::min<std::size_t>(
        static_cast<std::size_t>(region.numBlocks()) *
            region.slicesPerBlock(),
        std::size_t{1} << 19));
    FlatMap<TxInfo> txs;
    // Lowest slice sequence number a corruption cut could have
    // swallowed. A CRC failure that ends a block's live area can only
    // hide slices newer than the last good slice before the cut
    // (slices append in sequence order); a block whose *header* fails
    // its CRC is bounded below by the GC watermark instead. While no
    // corruption is observed the floor sits above every real sequence
    // number, so nothing is vetoed for incompleteness.
    std::uint64_t corruptionFloor = ~0ull;
    const FaultModel &faults = ctrl.nvm_.faults();
    // Durable GC watermark (a single 8-byte word, so it never tears
    // into an invalid value): blocks below it are migrated home.
    const std::uint64_t gc_watermark = region.gcWatermark();
    // Channel bytes of the scan, tallied as each read is issued: the
    // watermark's line, each header's line and each slot read.
    std::uint64_t scan_bytes = kCacheLineSize;

    for (std::uint32_t b = 0; b < region.numBlocks(); ++b) {
        // Crash point: between block-header scans. Recovery has
        // written nothing yet, so re-entering recovery after a crash
        // here sees the untouched post-crash image.
        ctrl.crashStep(CrashPointKind::RecoveryStep);
        if (region.faultToleranceEnabled() &&
            region.block(b).state == BlockState::Bad) {
            // Durably retired (the bitmap was adopted before this scan):
            // the cells are untrustworthy and the retirement contract
            // guarantees every live word was migrated home first.
            ++res.blocksSkippedRetired;
            continue;
        }
        const BlockHeaderView h = region.peekHeader(b);
        scan_bytes += kCacheLineSize;
        if (h.crcFailed) {
            ++res.headersRejected;
            // A torn header write never hides committed data: a torn
            // *recycle* header means the block's content was migrated
            // home and fenced before the recycle was issued (watermark
            // protocol), and a torn *(re)open* header means no slice in
            // the block had settled — by in-order channel completion a
            // settled slice implies a settled open write — so no
            // committed slice (acked, hence settled) ever lived there.
            // Only a media fault on the header line can swallow real
            // data; then the durable watermark still bounds the loss
            // (everything below it is migrated home), so the floor
            // drops to the watermark instead of zero. Lowering the
            // floor for harmless torn headers would veto — and thereby
            // half-apply — committed transactions whose chains span
            // the GC boundary.
            if (faults.mediaFaultyRange(region.blockBase(b),
                                        kCacheLineSize)) {
                // One refinement under runtime fault tolerance: a block
                // is only ever *opened* on a header that passed
                // program-verify, so a header on uncorrectable cells
                // means the block was never opened in this life — it
                // can hide nothing and must not depress the floor.
                if (!region.faultToleranceEnabled() ||
                    !faults.uncorrectableInRange(region.blockBase(b),
                                                 kCacheLineSize)) {
                    corruptionFloor =
                        std::min(corruptionFloor, gc_watermark);
                }
            }
        }
        if (!h.valid || h.state == BlockState::Unused)
            continue;
        if (h.openSeq < gc_watermark) {
            // The block sits below the durable GC watermark: its
            // committed words were migrated home and fenced before the
            // watermark was written, so this header is a recycle write
            // that tore back to its previous (self-consistent) value.
            // Replaying the resurrected slices would overlay the newer
            // migrated baseline with stale data — skip the block.
            ++res.blocksSkippedByWatermark;
            continue;
        }
        // Lowest sequence number a corruption cut in THIS block could
        // swallow. Slices are appended in strictly increasing global
        // sequence order, so a cut after a good slice with seq S can
        // only hide slices with seq > S; only a cut at the very first
        // slot could reach back to the block's openSeq.
        std::uint64_t block_floor = h.openSeq;
        for (std::uint32_t slot = 1; slot <= region.slicesPerBlock();
             ++slot) {
            const std::uint32_t idx =
                b * (region.slicesPerBlock() + 1) + slot;
            if (region.faultToleranceEnabled() &&
                region.slotUncorrectable(idx)) {
                // Program-verify skipped this slot at allocation time
                // (a slice never lands on uncorrectable cells), so it
                // hides no data. It must be stepped over BEFORE the
                // Invalid-type / CRC checks: its garbage bytes would
                // otherwise read as a cut and lose the good slices
                // written around it.
                ++res.slicesSkippedBad;
                continue;
            }
            const MemorySlice s = region.peekSlice(idx);
            scan_bytes += MemorySlice::kSliceBytes;
            if (s.type == SliceType::Invalid)
                break;
            if (!s.crcOk) {
                // Torn or corrupt: no field of this slice — including
                // seq and txId — can be trusted, so the block's live
                // area ends here. A commit record that tore never
                // enters `committed`, which is veto enough; acting on
                // its corrupt txId bytes could instead hit a
                // *different* transaction whose intact record lives
                // elsewhere. The cut may have swallowed chain slices
                // of any transaction young enough for this block, so
                // lower the corruption floor to the block's openSeq.
                ++res.slicesRejected;
                if (faults.mediaFaultyRange(region.sliceAddr(idx),
                                            MemorySlice::kSliceBytes))
                    ++res.bitFlipsDetected;
                if (s.type == SliceType::AddrRec)
                    ++res.tornCommitsDetected;
                corruptionFloor =
                    std::min(corruptionFloor, block_floor);
                break;
            }
            if (s.seq < h.openSeq)
                break; // stale slice from the block's previous life
            block_floor = s.seq + 1;
            ++res.slicesScanned;
            res.maxSeq = std::max(res.maxSeq, s.seq);
            if (s.txId != kInvalidTxId)
                res.maxTxId = std::max(res.maxTxId, s.txId);
            if (s.carriesWords())
                replayable.push_back(s);
            if (s.type == SliceType::Data) {
                if (s.txId != kInvalidTxId)
                    ++txs[s.txId].found;
            } else if (s.type == SliceType::AddrRec) {
                TxInfo &ti = txs[s.record.txId];
                ti.committed = true;
                ti.expected = s.record.sliceCount;
                ti.commitSeq = s.seq;
                res.maxTxId = std::max(res.maxTxId, s.record.txId);
            }
        }
    }

    // Chain completeness: a committed transaction must present every
    // Data slice its commit record counted. A shortfall has two
    // causes that demand opposite treatment. If corruption cut slices
    // out of a block old enough to have held part of this chain (its
    // openSeq is at or below the commit record's seq), replaying the
    // remainder could surface a torn transaction — drop it whole. If
    // no observed corruption could explain the gap, the missing
    // slices sat in blocks GC already recycled — GC only collects
    // all-committed blocks and migrates their words home first, so
    // the survivors overlay that migrated baseline and replaying them
    // completes the transaction (vetoing would leave it
    // half-applied).
    std::uint64_t replayed = 0;
    std::vector<TxId> committed_txs;
    txs.forEach([&](TxId tx, const TxInfo &ti) {
        if (ti.committed)
            committed_txs.push_back(tx);
    });
    for (TxId tx : committed_txs) {
        TxInfo &ti = *txs.find(tx);
        if (ti.found >= ti.expected) {
            ++replayed;
        } else if (corruptionFloor <= ti.commitSeq) {
            ++res.incompleteTxVetoed;
            ti.committed = false;
        } else {
            ++res.gcTrimmedTxReplayed;
            ++replayed;
        }
    }
    res.committedTxReplayed = replayed;
    res.bytesScanned = scan_bytes;
    res.keptSliceBytes = replayable.size() * MemorySlice::kSliceBytes;

    // ---- Phase 2: overlay every committed Data or Evict slice onto
    // its home lines; the highest sequence number wins. GC only ever
    // recycles sequence-order prefixes of the log, so every surviving
    // slice is newer than the home baseline and straight overlay is
    // safe. The merge rule is associative and commutative, so one
    // host pass picks the winners any split across recovery threads
    // would. ----
    LineCoalescer winners;
    for (const MemorySlice &s : replayable) {
        const TxInfo *ti = txs.find(s.txId);
        if (ti && ti->committed)
            winners.add(s);
    }

    // ---- Phase 3: write the winners home, in ascending line-address
    // order (which fixes the crash-point schedule). In the timing
    // model each line is merged and written by the recovery thread
    // that owns its bucket; the threads write disjoint lines, so this
    // order is one valid serialization of their writes. ----
    for (const auto &[line, pos] : winners.sorted()) {
        const LineCoalescer::Line &g = winners.line(pos);
        // Crash point: between home-line replay writes. The OOP region
        // is untouched until recover() resets it after run() returns,
        // so a second recovery redoes the overlay idempotently
        // (winning words depend only on the durable slices).
        ctrl.crashStep(CrashPointKind::RecoveryStep);
        std::uint8_t buf[kCacheLineSize];
        ctrl.nvm_.peek(line, buf, kCacheLineSize);
        g.overlay(buf);
        ctrl.nvm_.poke(line, buf, kCacheLineSize);
        res.bytesScanned += 2 * kCacheLineSize;
        ++res.homeLinesWritten;
        res.distinctWords += g.words();
        res.bucketWords[mergeBucket(line)] += g.words();
    }

    // ---- Phase 4: timing. The channel carries the one scan and a
    // read and a write of every replayed home line; each scanned slice
    // is CRC-checked once. The CRC work is reported on its own so
    // Fig. 11 can show the integrity overhead. ----
    res.crcVerifyCost = res.slicesScanned * kCrcVerifyCpuCost;
    res.time = time(res, threads, ctrl.nvm_.timing());

    if (TraceBuffer *tr = ctrl.trace()) {
        // Recovery runs on a freshly-reset machine: the cores sit at
        // tick 0, so the phase spans start there. The scan is charged
        // the portion of the modelled time proportional to its share
        // of the channel traffic (never zero: the tally always holds
        // the watermark's line); replay gets the rest.
        const unsigned tid = ctrl.cfg.numCores + 1;
        const Tick scan_t = static_cast<Tick>(
            static_cast<double>(res.time) *
            static_cast<double>(scan_bytes) /
            static_cast<double>(res.bytesScanned));
        tr->span("recovery.scan", "recovery", tid, 0, scan_t);
        tr->span("recovery.replay", "recovery", tid, scan_t, res.time);
        tr->span("recovery", "recovery", tid, 0, res.time);
    }

    runsC_ += 1;
    txReplayedC_ += res.committedTxReplayed;
    linesWrittenC_ += res.homeLinesWritten;
    slicesRejectedC_ += res.slicesRejected;
    tornCommitsC_ += res.tornCommitsDetected;
    bitFlipsC_ += res.bitFlipsDetected;
    headersRejectedC_ += res.headersRejected;
    blocksSkippedWatermarkC_ += res.blocksSkippedByWatermark;
    incompleteTxVetoedC_ += res.incompleteTxVetoed;
    gcTrimmedTxReplayedC_ += res.gcTrimmedTxReplayed;
    blocksSkippedRetiredC_ += res.blocksSkippedRetired;
    slicesSkippedBadC_ += res.slicesSkippedBad;
    return res;
}

Tick
RecoveryManager::time(const RecoveryResult &r, unsigned threads,
                      const NvmTiming &timing)
{
    return std::max(channelTime(r, timing), cpuTime(r, threads)) +
           timing.readLatency + timing.writeLatency;
}

Tick
RecoveryManager::channelTime(const RecoveryResult &r,
                             const NvmTiming &timing)
{
    // The scan and the write-back stream are limited by channel
    // bandwidth.
    return timing.transferTicks(static_cast<std::size_t>(r.bytesScanned));
}

Tick
RecoveryManager::cpuTime(const RecoveryResult &r, unsigned threads)
{
    threads = std::max(1u, threads);
    // Per-slice parsing and CRC verification divide evenly across the
    // recovery threads; each replayed word costs a merge step on the
    // thread that owns its home line.
    return (r.slicesScanned + threads - 1) / threads *
               (kPerSliceCpuCost + kCrcVerifyCpuCost) +
           static_cast<Tick>(busiestMergeSteps(r, threads)) *
               kMergeStepCpuCost;
}

std::uint64_t
RecoveryManager::busiestMergeSteps(const RecoveryResult &r,
                                   unsigned threads)
{
    threads = std::max(1u, threads);
    // Beyond kMergeBuckets threads, the extra threads own no bucket.
    std::uint64_t busiest = 0;
    for (unsigned t = 0; t < std::min(threads, kMergeBuckets); ++t) {
        std::uint64_t steps = 0;
        for (unsigned b = t; b < kMergeBuckets; b += threads)
            steps += r.bucketWords[b];
        busiest = std::max(busiest, steps);
    }
    return busiest;
}

} // namespace hoopnvm
