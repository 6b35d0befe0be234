#include "hoop/hoop_controller.hh"

#include <cstring>

#include "analysis/ordering_tracker.hh"
#include "common/errors.hh"
#include "common/host_profiler.hh"
#include "common/logging.hh"

namespace hoopnvm
{

HoopController::HoopController(NvmDevice &nvm, const SystemConfig &cfg_)
    : PersistenceController("hoop", nvm, cfg_),
      region_(nvm, cfg_),
      buffer(cfg_.numCores, cfg_.dataPacking),
      mapping(cfg_.mappingTableBytes),
      evictBuf(cfg_.evictionBufferBytes),
      chains(cfg_.numCores),
      bufferInsertCost(cfg_.cycle()),
      unpackCost(2 * cfg_.cycle()),
      evictBufReadCost(nsToTicks(20)),
      gcOnDemandC_(stats_.counter("gc_on_demand")),
      dataSlicesC_(stats_.counter("data_slices")),
      evictSlicesC_(stats_.counter("evict_slices")),
      gcMappingFullC_(stats_.counter("gc_mapping_full")),
      emergencyMigrationsC_(stats_.counter("emergency_migrations")),
      txWordsC_(stats_.counter("tx_words")),
      addrSlicesC_(stats_.counter("addr_slices")),
      txCommittedC_(stats_.counter("tx_committed")),
      mappingHitsC_(stats_.counter("mapping_hits")),
      parallelReadsC_(stats_.counter("parallel_reads")),
      fillSliceCrcDropsC_(stats_.counter("fill_slice_crc_drops")),
      evictionBufferHitsC_(stats_.counter("eviction_buffer_hits")),
      oopEvictionsC_(stats_.counter("oop_evictions")),
      homeEvictionsC_(stats_.counter("home_evictions")),
      gcPressureC_(stats_.counter("gc_pressure")),
      oopBackpressureStallsC_(stats_.counter("oop_backpressure_stalls")),
      oopBackpressureStallTicksC_(
          stats_.counter("oop_backpressure_stall_ticks")),
      txRejectedC_(stats_.counter("tx_rejected")),
      scrubPassesC_(stats_.counter("scrub_passes")),
      scrubCorrectedC_(stats_.counter("scrub_corrected_words")),
      scrubPauseH_(stats_.histogram("scrub_pause_ticks")),
      recoveriesC_(stats_.counter("recoveries")),
      recoveryReplayH_(stats_.histogram("recovery_replay_ticks"))
{
    gc_ = std::make_unique<GarbageCollector>(*this);
    recovery = std::make_unique<RecoveryManager>(*this);
}

HoopController::~HoopController() = default;

void
HoopController::declareOrderingRules(OrderingTracker &t)
{
    t.rule("hoop-commit-record")
        .requiresDurable("every chain slice and the commit record of an "
                         "acknowledged transaction");
    t.rule("hoop-gc-watermark")
        .requiresSettled("migrated home lines before the GC watermark "
                         "advances past their slices");
    t.rule("hoop-gc-recycle")
        .requiresSettled("the GC watermark before any collected block "
                         "is recycled");
    // Declared only when the subsystem can fire it: a rule that cannot
    // fire would (correctly) be reported dead by clean-run sweeps.
    if (cfg.ft.enabled) {
        t.rule("hoop-retire-bitmap")
            .requiresSettled("the durable retirement bitmap before the "
                             "retirement is acted upon");
    }
}

TxId
HoopController::txBeginAs(CoreId core, Tick now, TxId forced)
{
    // Graceful degradation: once retirement has eaten past the
    // configured fraction of the OOP region, stop admitting new
    // transactions (ENOSPC-style) instead of wedging mid-transaction.
    if (cfg.ft.enabled &&
        region_.degradedFraction() >= cfg.ft.rejectCapacityFraction) {
        ++txRejectedC_;
        throw TxRejected{RejectCause::CapacityDegraded,
                         "OOP region degraded past the admission "
                         "threshold by bad-block retirement"};
    }
    const TxId tx = PersistenceController::txBeginAs(core, now, forced);
    chains[core] = CoreChain{};
    return tx;
}

std::uint32_t
HoopController::allocSliceOrGc(Tick &now)
{
    std::uint32_t idx;
    if (region_.allocSlice(idx, now))
        return idx;
    // Region exhausted: the writer stalls while on-demand GC runs on
    // the critical path (§IV-F). This is modelled backpressure, not an
    // error — the GC's completion tick is charged to the blocked store
    // and the stall is counted.
    const Tick stall_start = now;
    ++gcOnDemandC_;
    ++oopBackpressureStallsC_;
    now = std::max(now, gc_->run(now));
    if (region_.allocSlice(idx, now)) {
        oopBackpressureStallTicksC_ += now - stall_start;
        return idx;
    }
    // GC freed nothing: the oldest live block is pinned by a
    // transaction that has not committed, and no other core can commit
    // while this store blocks (the simulation is cooperative), so
    // waiting longer cannot help. A single transaction outgrew the
    // (possibly retirement-degraded) OOP region. Degrade, don't die:
    // reject the offending transaction with a structured error the
    // caller can observe; its chain carries no commit record, so a
    // crash+recovery discards it like any uncommitted transaction.
    ++txRejectedC_;
    throw TxRejected{RejectCause::OopExhausted,
                     "OOP region wedged: every block pinned by open "
                     "transactions; increase oopBytes or shorten "
                     "transactions"};
}

Tick
HoopController::emitSlice(CoreId core, const PendingSlice &p,
                          SliceType type, TxId tx, Tick now)
{
    HOOP_ASSERT(p.count > 0, "emitting an empty slice");
    Tick t = now;
    const std::uint32_t idx = allocSliceOrGc(t);

    MemorySlice s;
    s.type = type;
    s.count = p.count;
    s.txId = tx;
    s.seq = region_.allocSeq();
    for (unsigned i = 0; i < p.count; ++i) {
        s.words[i] = p.words[i];
        s.homeAddrs[i] = p.addrs[i];
    }
    if (type == SliceType::Data) {
        s.prevIdx = chains[core].tailIdx;
        s.start = chains[core].sliceCount == 0;
        chains[core].tailIdx = idx;
        ++chains[core].sliceCount;
        ++dataSlicesC_;
    } else {
        s.prevIdx = MemorySlice::kNullIdx;
        s.start = false;
        ++evictSlicesC_;
    }

    const Tick done = region_.writeSlice(t, idx, s);
    // Pin GC at the first slice of an open transaction. An eviction
    // slice can carry another core's open transaction, so the owner is
    // found by id; a slice of a committed transaction pins nothing.
    // This precedes the mapping-full GC below, which must not collect
    // the slice's block while its transaction is open.
    for (CoreId c = 0; c < chains.size(); ++c) {
        if (coreTx[c].active && coreTx[c].txId == tx) {
            if (chains[c].firstBlock == OopRegion::kNoBlock)
                chains[c].firstBlock = region_.blockOfSlice(idx);
            break;
        }
    }
    // Evict slices are read-redirection copies; the chain slices carry
    // the same words, so commit durability depends only on Data slices.
    if (type == SliceType::Data)
        orderDep("hoop-commit-record", tx);

    if (type == SliceType::Evict) {
        if (!mapping.insert(lineAddr(p.addrs[0]), idx)) {
            // Mapping table full: GC drains it (Fig. 13's mechanism).
            ++gcMappingFullC_;
            gc_->run(t);
            // Remaining entries typically point into the still-open
            // block that GC cannot collect; migrate single committed
            // entries home until the insert fits.
            while (!mapping.insert(lineAddr(p.addrs[0]), idx)) {
                const bool drained = emergencyEvictMappingEntry(t);
                HOOP_ASSERT(drained, "mapping table wedged by open "
                                     "transactions");
            }
        }
    }
    return done;
}

bool
HoopController::emergencyEvictMappingEntry(Tick now)
{
    Addr victim = kInvalidAddr;
    std::uint32_t victim_idx = 0;
    mapping.forEach([&](Addr line, std::uint32_t slice_idx) {
        if (victim != kInvalidAddr)
            return;
        const MemorySlice s = region_.peekSlice(slice_idx);
        if (s.crcOk && s.carriesWords() && isCommitted(s.txId)) {
            victim = line;
            victim_idx = slice_idx;
        }
    });
    if (victim == kInvalidAddr)
        return false;

    // Merge the entry's (newest) words into the home line in place.
    Tick done;
    const MemorySlice s = region_.readSlice(now, victim_idx, &done);
    std::uint8_t buf[kCacheLineSize];
    nvm_.read(now, victim, buf, kCacheLineSize);
    for (unsigned i = 0; i < s.count; ++i) {
        if (lineAddr(s.homeAddrs[i]) == victim) {
            std::memcpy(buf + (s.homeAddrs[i] - victim), &s.words[i],
                        kWordSize);
        }
    }
    writeHomeLine(now, victim, buf);
    noteHomeSeq(victim, s.seq);
    mapping.remove(victim);
    ++emergencyMigrationsC_;
    return true;
}

Tick
HoopController::storeWord(CoreId core, Addr addr,
                          const std::uint8_t *data, Tick now)
{
    std::uint64_t value;
    std::memcpy(&value, data, kWordSize);
    txModifiedBytes_ += kWordSize;
    ++txWordsC_;

    if (buffer.addWord(core, addr, value)) {
        // Slice full: flush it to the OOP region off the critical path.
        const PendingSlice p = buffer.take(core);
        const Tick done =
            emitSlice(core, p, SliceType::Data, currentTx(core), now);
        chains[core].outstanding =
            std::max(chains[core].outstanding, done);
    }
    return bufferInsertCost;
}

Tick
HoopController::prepare(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "prepare without txBegin (core %u)",
                core);
    if (buffer.hasPending(core)) {
        const PendingSlice p = buffer.take(core);
        const Tick done = emitSlice(core, p, SliceType::Data,
                                    coreTx[core].txId, now);
        chains[core].outstanding =
            std::max(chains[core].outstanding, done);
    }
    return std::max(now, chains[core].outstanding);
}

Tick
HoopController::txEnd(CoreId core, Tick now)
{
    // Single-controller commit: the channel services writes in issue
    // order, so the commit record — issued after the chain slices —
    // persists after them without waiting for their completion. (The
    // multi-controller 2PC driver passes the prepare-acknowledgement
    // time instead, since cross-channel ordering needs explicit acks.)
    prepare(core, now);
    return commitPrepared(core, now);
}

Tick
HoopController::commitPrepared(CoreId core, Tick now)
{
    HOOP_ASSERT(coreTx[core].active, "commit without txBegin (core %u)",
                core);
    const TxId tx = coreTx[core].txId;
    Tick t = now;

    const std::uint64_t cid = allocCommitId();
    Tick commit_done = t;
    if (chains[core].sliceCount > 0) {
        // Persist the commit record (address slice, Fig. 5a).
        const std::uint32_t idx = allocSliceOrGc(t);
        MemorySlice s;
        s.type = SliceType::AddrRec;
        s.count = 1;
        s.txId = tx;
        s.seq = region_.allocSeq();
        s.record.txId = tx;
        s.record.commitId = cid;
        s.record.tailSliceIdx = chains[core].tailIdx;
        s.record.sliceCount = chains[core].sliceCount;
        // Address slices pack many commit records (Fig. 5a); the
        // byte-addressable device persists just the appended record.
        // The simulator stores records one per slot for simplicity but
        // charges the amortized record write (32 B). The record flows
        // through the device's write path (not poke) so the fault
        // injector can tear it like any other in-flight write.
        std::uint8_t enc[MemorySlice::kSliceBytes];
        s.encode(enc);
        commit_done = nvm_.write(t, region_.sliceAddr(idx), enc,
                                 MemorySlice::kSliceBytes, 32);
        orderDep("hoop-commit-record", tx);
        ++addrSlicesC_;
    }

    // Durability point: the commit record and every chain slice of this
    // transaction are on NVM. The debugNoCommitFence ablation
    // acknowledges at issue time instead — record and chain writes are
    // still in flight, so a crash can tear an acknowledged commit.
    // It exists only so hoop_crashcheck can validate that it catches
    // exactly the bug class this fence prevents.
    if (cfg.debugNoCommitFence)
        commit_done = t;
    else
        commit_done = std::max(commit_done, chains[core].outstanding);
    coreTx[core] = CoreTxState{};
    chains[core] = CoreChain{};
    ++txCommittedC_;
    const Tick ack = std::max(now, commit_done);
    orderTrigger("hoop-commit-record", tx, ack);
    return ack;
}

FillResult
HoopController::fillLine(CoreId core, Addr line, std::uint8_t *buf,
                         Tick now)
{
    (void)core;
    FillResult fr;

    if (auto m = mapping.lookup(line)) {
        // Most recent version lives out of place: read the OOP slice
        // and the home line in parallel and reconstruct (§III-G).
        mapping.remove(line);
        ++mappingHitsC_;
        ++parallelReadsC_;

        const Tick home_done = nvm_.read(now, line, buf, kCacheLineSize);
        Tick slice_done;
        const MemorySlice s = region_.readSlice(now, *m, &slice_done);
        if (!s.crcOk || !s.carriesWords()) {
            // A media fault corrupted the out-of-place copy. The home
            // line (already read) is the best surviving version: serve
            // it rather than overlay garbage words.
            ++fillSliceCrcDropsC_;
            fr.completion = home_done + unpackCost;
            return fr;
        }

        std::uint8_t mask = 0;
        for (unsigned i = 0; i < s.count; ++i) {
            if (lineAddr(s.homeAddrs[i]) != line)
                continue;
            const std::size_t off = s.homeAddrs[i] - line;
            std::memcpy(buf + off, &s.words[i], kWordSize);
            mask |= static_cast<std::uint8_t>(1u << (off / kWordSize));
        }

        fr.completion = std::max(home_done, slice_done) + unpackCost;
        // The reconstructed line is newer than the home region, and the
        // mapping entry is gone: keep it dirty so a later eviction
        // re-creates the out-of-place copy.
        fr.dirty = true;
        fr.persistent = true;
        fr.txId = s.txId;
        fr.wordMask = mask;
        return fr;
    }

    std::uint8_t tmp[kCacheLineSize];
    if (evictBuf.get(line, tmp)) {
        // Served from the controller's eviction buffer (§III-C).
        ++evictionBufferHitsC_;
        std::memcpy(buf, tmp, kCacheLineSize);
        fr.completion = now + evictBufReadCost;
        return fr;
    }

    fr.completion = nvm_.read(now, line, buf, kCacheLineSize);
    return fr;
}

void
HoopController::evictLine(CoreId core, Addr line,
                          const std::uint8_t *data, bool persistent,
                          TxId tx, std::uint8_t word_mask, Tick now)
{
    if (persistent && tx != kInvalidTxId) {
        // Transactionally-modified lines always leave the hierarchy
        // out of place (the home region is written only by GC,
        // §III-B): the dirty words become an eviction slice and the
        // mapping table redirects future misses.
        std::uint8_t mask = word_mask ? word_mask : 0xff;
        PendingSlice p;
        for (unsigned i = 0; i < kWordsPerLine; ++i) {
            if (!(mask & (1u << i)))
                continue;
            p.addrs[p.count] = line + i * kWordSize;
            std::memcpy(&p.words[p.count], data + i * kWordSize,
                        kWordSize);
            ++p.count;
        }
        emitSlice(core, p, SliceType::Evict, tx, now);
        ++oopEvictionsC_;
        return;
    }

    // Non-transactional dirty data: ordinary in-place writeback.
    // Stamp the freshness watermark so a later GC pass over older
    // slices does not regress this line.
    writeHomeLine(now, line, data);
    noteHomeSeq(line, region_.allocSeq());
    mapping.remove(line);
    ++homeEvictionsC_;
}

Tick
HoopController::writeHomeLine(Tick now, Addr line,
                              const std::uint8_t *data)
{
    const Tick done = nvm_.write(now, line, data, kCacheLineSize);
    // Any buffered copy is now stale; the home region is fresh.
    evictBuf.invalidate(line);
    return done;
}

void
HoopController::maintenance(Tick now)
{
    if (!cfg.gcEnabled)
        return;
    const bool period_due = now - lastGc >= cfg.gcPeriod;
    const bool pressure = region_.freeBlocks() <= 1 ||
                          mapping.size() * 10 >= mapping.capacity() * 9;
    if (period_due || pressure) {
        if (pressure && !period_due)
            ++gcPressureC_;
        lastGc = now;
        gc_->run(now);
    }
}

Tick
HoopController::scrub(Tick now)
{
    if (!region_.faultToleranceEnabled())
        return now;
    const std::uint32_t n = region_.numBlocks();
    const std::uint32_t slots = region_.slicesPerBlock() + 1;
    Tick last = now;
    std::uint32_t scanned = 0;
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(slots) * MemorySlice::kSliceBytes);
    for (std::uint32_t step = 0; step < n && scanned < cfg.ft.scrubChunks;
         ++step) {
        const std::uint32_t b = scrubCursor_;
        scrubCursor_ = (scrubCursor_ + 1) % n;
        OopBlockInfo &blk = region_.block(b);
        if (blk.state == BlockState::Bad)
            continue;
        ++scanned;

        // Patrol read: the header always, the slice area only when the
        // block has been written in this life (an Unused block's slots
        // are program-verified again at allocation time anyway). The
        // device's read path counts and charges every ECC correction.
        const std::size_t scan_bytes =
            blk.state == BlockState::Unused
                ? MemorySlice::kSliceBytes
                : static_cast<std::size_t>(slots) *
                      MemorySlice::kSliceBytes;
        ReadFaultInfo rf;
        last = std::max(last, nvm_.read(now, region_.blockBase(b),
                                        buf.data(), scan_bytes, &rf));
        scrubCorrectedC_ += rf.correctedWords;

        // Program-verify sweep: how much of the block sits on
        // uncorrectable cells right now?
        std::uint32_t bad = 0;
        for (std::uint32_t slot = 1; slot < slots; ++slot) {
            if (region_.slotUncorrectable(b * slots + slot))
                ++bad;
        }
        const bool header_bad = nvm_.faults().uncorrectableInRange(
            region_.blockBase(b), kCacheLineSize);
        const bool degraded =
            header_bad ||
            static_cast<double>(bad) /
                    static_cast<double>(region_.slicesPerBlock()) >=
                cfg.ft.retireBadSlotFraction;
        if (!degraded)
            continue;
        if (blk.state == BlockState::Unused) {
            // Free block: nothing to migrate, retire on the spot.
            last = std::max(last, region_.retireBlock(b, now));
        } else {
            // Live block: GC must migrate the survivors first; it
            // retires the block at the recycle step.
            blk.retirePending = true;
        }
    }
    ++scrubPassesC_;
    scrubPauseH_.record(last - now);
    return last;
}

std::vector<std::pair<Addr, Addr>>
HoopController::freeMediaRanges() const
{
    std::vector<std::pair<Addr, Addr>> out;
    const std::uint32_t slots = region_.slicesPerBlock() + 1;
    const Addr block_bytes =
        static_cast<Addr>(slots) * MemorySlice::kSliceBytes;
    for (std::uint32_t b = 0; b < region_.numBlocks(); ++b) {
        if (region_.block(b).state != BlockState::Unused)
            continue;
        const Addr lo = region_.blockBase(b);
        if (!out.empty() && out.back().second == lo)
            out.back().second = lo + block_bytes;
        else
            out.emplace_back(lo, lo + block_bytes);
    }
    return out;
}

ControllerGauges
HoopController::sampleGauges() const
{
    ControllerGauges g;
    g.mappingEntries = mapping.size();
    g.structBytes = static_cast<std::uint64_t>(region_.numBlocks() -
                                               region_.freeBlocks()) *
                    cfg.oopBlockBytes;
    g.backpressureStalls = oopBackpressureStallsC_.value();
    if (region_.faultToleranceEnabled()) {
        g.retiredUnits = region_.retiredBlocks();
        g.correctedWords = nvm_.faults().wordsEccCorrected();
        g.degradedFraction = region_.degradedFraction();
    }
    g.txRejected = txRejectedC_.value();
    return g;
}

Tick
HoopController::drain(Tick now)
{
    // Make every block collectable and migrate all committed data so
    // that end-of-run traffic accounting includes HOOP's deferred work.
    region_.closeCurrentBlock(now);
    return gc_->run(now);
}

bool
HoopController::homeFresherThan(Addr line, std::uint64_t seq) const
{
    const std::uint64_t *s = homeSeq.find(line);
    return s && *s > seq;
}

void
HoopController::noteHomeSeq(Addr line, std::uint64_t seq)
{
    std::uint64_t &s = homeSeq[line];
    if (seq > s)
        s = seq;
}

void
HoopController::crash()
{
    // Everything in the controller's SRAM is volatile.
    buffer.clearAll();
    mapping.clear();
    evictBuf.clear();
    homeSeq.clear();
    for (auto &c : chains)
        c = CoreChain{};
    for (auto &t : coreTx)
        t = CoreTxState{};
}

Tick
HoopController::recover(unsigned threads)
{
    return recoverWithFilter(threads, nullptr);
}

Tick
HoopController::modelRecovery(unsigned threads)
{
    HostTimer ht(HostProfiler::kRecovery);
    if (region_.faultToleranceEnabled())
        region_.loadRetirement();
    const RecoveryResult r = recovery->run(threads, nullptr);
    lastRecovery_ = r;
    return r.time;
}

Tick
HoopController::recoverWithFilter(unsigned threads,
                                  const std::unordered_set<TxId> *allow)
{
    // Adopt the durable retirement bitmap before scanning anything:
    // retired blocks' cells are untrustworthy and must never be read,
    // replayed, or reallocated.
    if (region_.faultToleranceEnabled())
        region_.loadRetirement();
    const RecoveryResult r = recovery->run(threads, allow);
    lastRecovery_ = r;

    // Post-recovery: the home region is the single source of truth.
    // Sequences restart past every scanned slice and never below the
    // durable GC watermark: a block opened below it would read as
    // recycled to the next recovery.
    region_.reset();
    region_.setNextSeq(std::max(r.maxSeq + 1, region_.gcWatermark()));
    mapping.clear();
    evictBuf.clear();
    buffer.clearAll();
    homeSeq.clear();
    restartIds(r.maxTxId + 1, r.committedTxReplayed + 1);
    recoveriesC_ += 1;
    recoveryReplayH_.record(r.time);
    return r.time;
}

bool
HoopController::isCommitted(TxId tx) const
{
    if (!txBegun(tx))
        return false;
    for (const CoreTxState &c : coreTx) {
        if (c.active && c.txId == tx)
            return false;
    }
    return true;
}

bool
HoopController::pinsGc(std::uint32_t b) const
{
    for (const CoreChain &c : chains) {
        if (c.firstBlock == b)
            return true;
    }
    return false;
}

void
HoopController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    nvm_.peek(line, buf, kCacheLineSize);
    if (auto m = mapping.lookup(line)) {
        const MemorySlice s = region_.peekSlice(*m);
        if (!s.crcOk)
            return; // corrupt overlay: the home line is the best copy
        for (unsigned i = 0; i < s.count; ++i) {
            if (lineAddr(s.homeAddrs[i]) != line)
                continue;
            std::memcpy(buf + (s.homeAddrs[i] - line), &s.words[i],
                        kWordSize);
        }
        return;
    }
    std::uint8_t tmp[kCacheLineSize];
    if (evictBuf.get(line, tmp))
        std::memcpy(buf, tmp, kCacheLineSize);
}

} // namespace hoopnvm
