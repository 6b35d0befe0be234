/**
 * @file
 * The HOOP memory controller: the paper's primary contribution.
 *
 * HOOP writes transactional updates *out of place* into the
 * log-structured OOP region instead of logging or shadow-copying them:
 *
 *  - Transactional stores deposit words into the per-core OOP data
 *    buffer; full slices are flushed to the OOP region asynchronously
 *    (data packing, §III-C/D). The core never waits on a store.
 *  - Tx_end flushes the remaining slice plus an address slice (the
 *    commit record) and waits for those writes only — there are no
 *    cache flushes or fences on the application side (Fig. 4d).
 *  - LLC evictions of transactionally-modified lines write their dirty
 *    words to the OOP region and install a mapping-table entry; LLC
 *    misses consult the table and read the OOP slice and home line in
 *    parallel, then drop the entry (the freshest copy moves into the
 *    cache hierarchy). A slice that holds all eight words of its line
 *    is read alone: the home copy is read only for the words the
 *    out-of-place copy leaves out, here, in GC and in recovery.
 *  - Background GC coalesces committed updates and migrates them to the
 *    home region (see GarbageCollector); recovery replays committed
 *    slice chains after a crash (see RecoveryManager).
 */

#ifndef HOOPNVM_HOOP_HOOP_CONTROLLER_HH
#define HOOPNVM_HOOP_HOOP_CONTROLLER_HH

#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "controller/persistence_controller.hh"
#include "hoop/eviction_buffer.hh"
#include "hoop/garbage_collector.hh"
#include "hoop/mapping_table.hh"
#include "hoop/oop_data_buffer.hh"
#include "hoop/oop_region.hh"
#include "hoop/recovery.hh"

namespace hoopnvm
{

/** Hardware-assisted out-of-place update controller. */
class HoopController : public PersistenceController
{
  public:
    HoopController(NvmDevice &nvm, const SystemConfig &cfg);
    ~HoopController() override;

    Scheme scheme() const override { return Scheme::Hoop; }

    TxId txBegin(CoreId core, Tick now) override;
    Tick txEnd(CoreId core, Tick now) override;

    /**
     * Model recovery on the current crash image WITHOUT the
     * post-recovery reset that recover() performs: the scan replays
     * the winners home (idempotently) and returns the modelled
     * recovery time, but the OOP region, mapping table and tx-id
     * state are left untouched, so the call is repeatable — running
     * it N times on one crashed system yields N identical results,
     * because the scan phases read only durable state the replay
     * never modifies. lastRecovery() reflects the run.
     */
    Tick modelRecovery(unsigned threads);
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;
    void maintenance(Tick now) override;

    Tick scrub(Tick now) override;
    ControllerGauges sampleGauges() const override;
    Tick drain(Tick now) override;
    void crash() override;
    Tick recover(unsigned threads) override;
    void debugReadLine(Addr line, std::uint8_t *buf) const override;
    void declareOrderingRules(OrderingTracker &t) override;

    /** Forward the tracker to the OOP region's retirement machinery. */
    void
    setOrderingTracker(OrderingTracker *t) override
    {
        PersistenceController::setOrderingTracker(t);
        region_.setOrdering(t);
    }

    /** Unused OOP blocks: wear-out fault-injection targets. */
    std::vector<std::pair<Addr, Addr>> freeMediaRanges() const override;

    // ---- Component access (tests, benches, GC) ----

    OopRegion &region() { return region_; }
    MappingTable &mappingTable() { return mapping; }
    EvictionBuffer &evictionBuffer() { return evictBuf; }
    OopDataBuffer &dataBuffer() { return buffer; }
    GarbageCollector &gc() { return *gc_; }

    /** Full result of the most recent recovery run (integrity stats). */
    const RecoveryResult &lastRecovery() const { return lastRecovery_; }

    /**
     * True once @p tx has begun on this controller and is open on no
     * core: it committed, or a crash discarded it. At most one
     * transaction per core is open, so no commit log is kept.
     */
    bool isCommitted(TxId tx) const;

    /** Total bytes modified by transactions so far (Table IV input). */
    std::uint64_t txModifiedBytes() const { return txModifiedBytes_; }

    /**
     * Write @p data to home line @p line (timed) and keep the eviction
     * buffer coherent. Used by the eviction path and by GC migration.
     */
    Tick writeHomeLine(Tick now, Addr line, const std::uint8_t *data);

    /**
     * True when @p line's home copy was written by a committed
     * eviction *after* slice sequence @p seq was produced. GC uses
     * this to avoid regressing the home region.
     */
    bool homeFresherThan(Addr line, std::uint64_t seq) const;

    /** Record that home holds content at least as new as @p seq. */
    void noteHomeSeq(Addr line, std::uint64_t seq);

  private:
    friend class GarbageCollector;
    friend class RecoveryManager;

    /** Per-core slice-chain state of the running transaction. */
    struct CoreChain
    {
        std::uint32_t tailIdx = MemorySlice::kNullIdx;
        std::uint32_t sliceCount = 0;

        /**
         * Block of the transaction's first slice, data or eviction
         * (OopRegion::kNoBlock while it has none). Its later slices
         * land in this block or a later-opened one, so GC may collect
         * only the blocks opened before it (see pinsGc).
         */
        std::uint32_t firstBlock = OopRegion::kNoBlock;

        /** Completion tick of the newest posted slice write. */
        Tick outstanding = 0;
    };

    /** True when block @p b holds some open transaction's first slice. */
    bool pinsGc(std::uint32_t b) const;

    /**
     * Emit @p p as one memory slice of @p type for transaction @p tx,
     * chaining data slices into the core's transaction chain.
     * @return Completion tick of the slice write.
     */
    Tick emitSlice(CoreId core, const PendingSlice &p, SliceType type,
                   TxId tx, Tick now);

    /** Allocate a slice slot, GCing on demand when the region is full. */
    std::uint32_t allocSliceOrGc(Tick &now);

    /**
     * Last-resort mapping-table drain: migrate one committed entry's
     * line home immediately and drop the entry. Used when even
     * on-demand GC cannot free space (the entries point into the
     * still-open block).
     */
    bool emergencyEvictMappingEntry(Tick now);

    OopRegion region_;
    OopDataBuffer buffer;
    MappingTable mapping;
    EvictionBuffer evictBuf;
    std::unique_ptr<GarbageCollector> gc_;
    std::unique_ptr<RecoveryManager> recovery;
    RecoveryResult lastRecovery_;

    std::vector<CoreChain> chains;

    Tick lastGc = 0;
    std::uint64_t txModifiedBytes_ = 0;

    /** Round-robin block cursor of the background scrubber. */
    std::uint32_t scrubCursor_ = 0;

    /**
     * Per-line freshness watermark of the home region: the slice
     * sequence number up to which the home copy is known current.
     * Volatile (host-side); recovery does not depend on it.
     */
    FlatMap<std::uint64_t> homeSeq;

    /** Controller-internal latencies. */
    static constexpr Tick kBufferInsertCost = kCycle;
    static constexpr Tick kUnpackCost = 2 * kCycle;
    static constexpr Tick kEvictBufReadCost = nsToTicks(20);

    // Hot-path counters resolved once against stats_ (see
    // PersistenceController). "recoveries" stays string-keyed: rare.
    Counter &gcOnDemandC_;
    Counter &dataSlicesC_;
    Counter &evictSlicesC_;
    Counter &gcMappingFullC_;
    Counter &emergencyMigrationsC_;
    Counter &txWordsC_;
    Counter &addrSlicesC_;
    Counter &txCommittedC_;
    Counter &mappingHitsC_;
    Counter &parallelReadsC_;
    Counter &fillSliceCrcDropsC_;
    Counter &evictionBufferHitsC_;
    Counter &oopEvictionsC_;
    Counter &homeEvictionsC_;
    Counter &gcPressureC_;
    Counter &oopBackpressureStallsC_;
    Counter &oopBackpressureStallTicksC_;
    Counter &txRejectedC_;
    Counter &scrubPassesC_;
    Counter &scrubCorrectedC_;
    Histogram &scrubPauseH_;
    Counter &recoveriesC_;
    Histogram &recoveryReplayH_;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_HOOP_CONTROLLER_HH
