#include "hoop/garbage_collector.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/host_profiler.hh"
#include "common/logging.hh"
#include "hoop/hoop_controller.hh"
#include "hoop/line_coalescer.hh"
#include "stats/trace.hh"

namespace hoopnvm
{

GarbageCollector::GarbageCollector(HoopController &ctrl_)
    : ctrl(ctrl_), stats_("gc"),
      noopRunsC_(stats_.counter("noop_runs")),
      runsC_(stats_.counter("runs")),
      slicesScannedC_(stats_.counter("slices_scanned")),
      slicesCrcSkippedC_(stats_.counter("slices_crc_skipped")),
      homeLinesWrittenC_(stats_.counter("home_lines_written")),
      homeLinesSkippedFresherC_(
          stats_.counter("home_lines_skipped_fresher")),
      mappingEntriesDroppedC_(
          stats_.counter("mapping_entries_dropped")),
      blocksRecycledC_(stats_.counter("blocks_recycled")),
      pauseH_(ctrl_.stats().histogram("maint_pause_ticks"))
{
}

double
GarbageCollector::dataReductionRatio() const
{
    const std::uint64_t modified = ctrl.txModifiedBytes();
    if (modified == 0)
        return 0.0;
    const double written = static_cast<double>(migratedWordBytes_);
    return 1.0 - written / static_cast<double>(modified);
}

Tick
GarbageCollector::run(Tick now)
{
    HostTimer host_timer(HostProfiler::kGc);
    OopRegion &region = ctrl.region_;
    const std::uint32_t n_blocks = region.numBlocks();

    // ---- Step 1: candidate selection ----
    // Slices are written in global sequence order, and a block opened
    // later holds strictly newer slices than one opened earlier. GC
    // therefore collects a *prefix* of the live blocks in allocation
    // order: after migration, every surviving slice is newer than the
    // home-region baseline, which keeps both reads and recovery
    // correct without per-address bookkeeping. The prefix stops at the
    // first block that is still in use or holds an open transaction's
    // first slice: every block from there on may hold that
    // transaction's slices, and every block before it holds committed
    // ones only. It compares blocks, not openSeq: a block whose every
    // slot failed program-verify holds nothing and shares its openSeq
    // with the next block, and it is collectable.
    std::vector<std::uint32_t> live;
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
        // Bad blocks are retired capacity: nothing to collect, never
        // recycled — including them would wedge the prefix forever.
        if (region.block(b).state != BlockState::Unused &&
            region.block(b).state != BlockState::Bad)
            live.push_back(b);
    }
    std::sort(live.begin(), live.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return region.block(a).openSeq <
                         region.block(b).openSeq;
              });

    std::vector<std::uint32_t> cand;
    std::vector<bool> in_cand(n_blocks, false);
    for (std::uint32_t b : live) {
        if (region.block(b).state != BlockState::Full || ctrl.pinsGc(b))
            break;
        cand.push_back(b);
        in_cand[b] = true;
    }

    if (cand.empty()) {
        ++noopRunsC_;
        return now;
    }
    ++runsC_;

    // Trace lane: one synthetic tid past the last core.
    TraceBuffer *const tr = ctrl.trace();
    const unsigned gc_tid = ctrl.cfg.numCores;

    // ---- Step 2: scan committed slices and coalesce (Algorithm 1) ----
    LineCoalescer coalesced;
    struct RawWord
    {
        std::uint64_t seq;
        Addr addr;
        std::uint64_t value;
    };
    std::vector<RawWord> raw; // used only when coalescing is disabled

    Tick last = now;
    for (std::uint32_t b : cand) {
        // Crash point: between marking blocks as under-GC. A block left
        // in the Gc state is still scanned by recovery, so no slice is
        // lost.
        ctrl.crashStep(CrashPointKind::GcStep);
        region.setBlockState(b, BlockState::Gc, now);
        const std::uint32_t used = region.block(b).writePtr;
        for (std::uint32_t slot = 1; slot < used; ++slot) {
            const std::uint32_t idx =
                b * (region.slicesPerBlock() + 1) + slot;
            Tick done;
            const MemorySlice s = region.readSlice(now, idx, &done);
            last = std::max(last, done);
            ++slicesScannedC_;
            if (!s.crcOk) {
                // A media fault corrupted this slice in place: none of
                // its fields can be trusted, so its words cannot be
                // migrated. Count the loss and move on — the home copy
                // (whatever it holds) is the best surviving version.
                ++slicesCrcSkippedC_;
                continue;
            }
            if (!s.carriesWords())
                continue;
            // Step 1 collects only blocks that precede every open
            // transaction's first slice, so every slice here committed.
            if (ctrl.cfg.gcCoalescing) {
                coalesced.add(s);
            } else {
                for (unsigned i = 0; i < s.count; ++i)
                    raw.push_back({s.seq, s.homeAddrs[i], s.words[i]});
            }
        }
    }

    const Tick scan_done = last;
    if (tr)
        tr->span("gc.scan", "gc", gc_tid, now, scan_done);

    // ---- Step 3: migrate to the home region ----
    if (ctrl.cfg.gcCoalescing) {
        // Each accumulated line is written home once, in ascending
        // line-address order, which fixes the write timing, crash
        // points and eviction-buffer contents.
        for (const auto &[line, pos] : coalesced.sorted()) {
            const LineCoalescer::Line &g = coalesced.line(pos);
            const std::uint64_t max_seq = g.maxSeq();
            // Crash point: between home-line migration writes. The
            // source blocks are not recycled until after the fence
            // below, so recovery can always redo a torn migration.
            ctrl.crashStep(CrashPointKind::GcStep);
            // Skip lines whose home copy is already newer (a committed
            // eviction wrote the full line in place after these slices
            // were produced) — GC must never regress the home region.
            if (!ctrl.homeFresherThan(line, max_seq)) {
                std::uint8_t buf[kCacheLineSize];
                last = std::max(last, ctrl.nvm_.read(now, line, buf,
                                                     kCacheLineSize));
                g.overlay(buf);
                last = std::max(last,
                                ctrl.writeHomeLine(now, line, buf));
                ctrl.orderDep("hoop-gc-watermark", 0);
                ctrl.noteHomeSeq(line, max_seq);
                // Recently migrated lines stay visible in the eviction
                // buffer so racing misses never read a stale home copy.
                ctrl.evictBuf.put(line, buf);
                ++homeLinesWrittenC_;
            } else {
                ++homeLinesSkippedFresherC_;
            }
            migratedWordBytes_ +=
                static_cast<std::uint64_t>(g.words()) * kWordSize;
        }
    } else {
        // Ablation: apply every update individually in age order —
        // a read-modify-write of the home line per scanned word.
        std::sort(raw.begin(), raw.end(),
                  [](const RawWord &a, const RawWord &b) {
                      return a.seq < b.seq;
                  });
        for (const RawWord &w : raw) {
            ctrl.crashStep(CrashPointKind::GcStep);
            const Addr line = lineAddr(w.addr);
            if (ctrl.homeFresherThan(line, w.seq))
                continue;
            std::uint8_t buf[kCacheLineSize];
            last = std::max(
                last, ctrl.nvm_.read(now, line, buf, kCacheLineSize));
            std::memcpy(buf + (w.addr - line), &w.value, kWordSize);
            last = std::max(last, ctrl.writeHomeLine(now, line, buf));
            ctrl.orderDep("hoop-gc-watermark", 0);
            ctrl.evictBuf.put(line, buf);
            migratedWordBytes_ += kWordSize;
            ++homeLinesWrittenC_;
        }
    }

    if (tr)
        tr->span("gc.migrate", "migration", gc_tid, scan_done, last);

    // ---- Step 4: drop mapping entries that point into collected
    // blocks (their lines' latest committed data is now home) ----
    std::vector<Addr> drop;
    ctrl.mapping.forEach([&](Addr line, std::uint32_t slice_idx) {
        if (in_cand[region.blockOfSlice(slice_idx)])
            drop.push_back(line);
    });
    for (Addr line : drop)
        ctrl.mapping.remove(line);
    mappingEntriesDroppedC_ += drop.size();

    // ---- Step 5: durability fence, watermark, then recycle ----
    // A crash must never tear a migration write whose source block was
    // already recycled, so the GC engine drains the channel before the
    // free-list update. The drain costs real time: GC's completion
    // advances to an upper bound on the completion of every write
    // issued so far (the channel frees in issue order), and only
    // writes complete by that tick settle — writes issued afterwards,
    // including the recycle header writes below, can still tear.
    last = std::max(last, ctrl.nvm_.drainFence(last));
    if (!ctrl.cfg.debugSkipSettleFences)
        ctrl.nvm_.faults().settleUpTo(last);
    ctrl.orderTrigger("hoop-gc-watermark", 0, last);

    // Advance the durable GC watermark past every collected block and
    // fence it before any recycle header is issued. The recycle
    // headers are NOT atomic: a torn one can revert wholesale to the
    // previous, CRC-consistent header and resurrect a recycled block,
    // whose stale slices recovery would then replay over the newer
    // migrated home baseline. The watermark closes that hole — if any
    // recycle header was issued the watermark is already durable and
    // recovery skips the whole batch by openSeq; if the watermark
    // itself tore (a single 8-byte word, so it merely reverts), no
    // recycle header was issued yet and every batch block still
    // replays together, reproducing the migration via max-seq-wins.
    //
    // The watermark must not pass a block the batch left live, nor
    // the sequence the next block opens at. A block whose every slot
    // failed program-verify holds no slice, so the block opened after
    // it shares its openSeq; a watermark one past the empty block
    // would make recovery skip that live block and lose its commits.
    std::uint64_t batch_max_open = 0;
    for (std::uint32_t b : cand) {
        batch_max_open =
            std::max(batch_max_open, region.block(b).openSeq);
    }
    std::uint64_t watermark =
        std::min(batch_max_open + 1, region.nextSeq());
    for (std::uint32_t b : live) {
        if (!in_cand[b])
            watermark = std::min(watermark, region.block(b).openSeq);
    }
    last = std::max(last, region.writeGcWatermark(watermark, now));
    ctrl.orderDep("hoop-gc-recycle", 0);
    last = std::max(last, ctrl.nvm_.drainFence(last));
    if (!ctrl.cfg.debugSkipSettleFences)
        ctrl.nvm_.faults().settleUpTo(last);
    ctrl.orderTrigger("hoop-gc-recycle", 0, last, 1);
    for (std::uint32_t b : cand) {
        // Crash point: between block recycles, after the fence. An
        // already-recycled block's data is durably home; a not-yet-
        // recycled one is rescanned and re-migrated idempotently.
        ctrl.crashStep(CrashPointKind::GcStep);
        // A block that degraded past the retirement threshold while in
        // service is retired here instead of recycled: its survivors
        // were just migrated home, so this is the one point where
        // losing the block costs nothing.
        if (region.block(b).retirePending)
            last = std::max(last, region.retireBlock(b, now));
        else
            region.setBlockState(b, BlockState::Unused, now);
    }
    blocksRecycledC_ += cand.size();

    // The pause this GC run imposes on the system: its completion tick
    // minus the tick it started at (Fig. 10's GC-induced latency).
    pauseH_.record(last - now);
    if (tr)
        tr->span("gc", "gc", gc_tid, now, last);

    return last;
}

} // namespace hoopnvm
