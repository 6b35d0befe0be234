/**
 * @file
 * Three-level cache hierarchy: private L1/L2 per core and a shared,
 * inclusive LLC, backed by a PersistenceController.
 *
 * The hierarchy is functional (lines carry data) and timed (each level
 * adds its hit latency; misses add the controller's fill latency). Dirty
 * evictions cascade L1 -> L2 -> LLC; LLC victims are back-invalidated
 * from all upper levels, merged, and handed to the controller, which is
 * where crash-consistency schemes differ (home region vs out-of-place).
 *
 * Coherence: the simulator executes cores one at a time, so a simple
 * invalidate-on-write protocol with an LLC-side sharer mask suffices.
 * Workloads use application-level locking for inter-transaction
 * concurrency control (as the paper assumes, §III-G), so cross-core
 * write sharing is rare; the protocol is nonetheless complete.
 */

#ifndef HOOPNVM_MEM_CACHE_HIERARCHY_HH
#define HOOPNVM_MEM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "controller/persistence_controller.hh"
#include "mem/cache.hh"
#include "sim/system_config.hh"

namespace hoopnvm
{

/** Per-core L1/L2 plus shared inclusive LLC. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const SystemConfig &cfg);

    /** Attach the memory-controller persistence scheme. */
    void setController(PersistenceController *c) { ctrl = c; }

    /**
     * Timed load of the aligned 8-byte word at @p addr.
     * @return Completion tick; the value is stored in @p out.
     */
    Tick loadWord(CoreId core, Addr addr, std::uint64_t &out, Tick now);

    /**
     * Timed store of the aligned 8-byte word at @p addr. If the core is
     * inside a transaction the line's persistent bit is set and the
     * controller's storeWord hook is invoked (Fig. 6 store path).
     * @return Completion tick.
     */
    Tick storeWord(CoreId core, Addr addr, std::uint64_t value, Tick now);

    /** Untimed coherent read for verification (caches beat NVM). */
    void debugRead(Addr addr, void *buf, std::size_t len) const;

    /**
     * Enter/leave debug-batch mode: between the calls, debugRead
     * memoizes the last reconstructed line, so word-by-word
     * verification loops resolve each 64-byte line once instead of
     * once per word (each resolution probes the LLC, scans the private
     * caches on a hit and may otherwise rebuild the line from
     * controller metadata). The caller promises
     * no simulated mutation — no stores, maintenance, or controller
     * activity — happens while the batch is open; the verify phase
     * after finalize() is exactly that window.
     */
    void
    beginDebugBatch()
    {
        debugBatch_ = true;
        debugMemoLine_ = kInvalidAddr;
    }

    void endDebugBatch() { debugBatch_ = false; }

    /** Power failure: all cached state vanishes, nothing written back. */
    void dropAll();

    /** Flush every dirty line down to the controller (end of run). */
    void writebackAll(Tick now);

    Cache &llc() { return *llc_; }
    Cache &l1(CoreId core) { return *l1s[core]; }
    Cache &l2(CoreId core) { return *l2s[core]; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** LLC miss ratio over all accesses so far. */
    double llcMissRatio() const;

    /**
     * Zero the hierarchy's and every cache's counters and histograms so
     * a measurement phase starting mid-run (after warmup) reports only
     * its own accesses. Cache *contents* are untouched.
     */
    void resetStats();

  private:
    /** Returns the L1 line for @p line, fetching through the levels. */
    CacheLine ensureInL1(CoreId core, Addr line, bool for_store,
                         Tick &t);

    /** loadWord that also hands back the resolved L1 line view. */
    Tick loadWordResolved(CoreId core, Addr addr, std::uint64_t &out,
                          Tick now, CacheLine &line);

    /** storeWord that also hands back the resolved L1 line view. */
    Tick storeWordResolved(CoreId core, Addr addr, std::uint64_t value,
                           Tick now, CacheLine &line);

    /**
     * Load of a word of the line this core's WordMemo holds: identical
     * stat/LRU/latency effects to loadWordResolved on that L1-resident
     * line, without the set re-scan.
     */
    Tick loadWordHit(CoreId core, CacheLine line, Addr addr,
                     std::uint64_t &out, Tick now);

    /**
     * Store to a word of the line this core's WordMemo holds exclusive.
     * Skips the redundant L1 set scan, LLC lookup and sharer
     * reconciliation (the line is already exclusive, so those are
     * no-ops on the resolving path too) while applying the identical
     * stat, LRU, latency and controller-hook effects.
     */
    Tick storeWordHit(CoreId core, CacheLine line, Addr addr,
                      std::uint64_t value, Tick now);

    /**
     * The part of a store both paths share once @p line is resolved
     * in this core's L1 at tick @p t: write the word, mark the line
     * dirty and, inside a transaction, persistent and hand the word to
     * the controller. @return the completion tick.
     */
    Tick writeWord(CoreId core, CacheLine line, Addr addr,
                   std::uint64_t value, Tick t);

    /** Insert into L1; dirty victims merge into L2. */
    void insertL1(CoreId core, Addr line, const std::uint8_t *data,
                  bool dirty, bool persistent, CoreId writer, TxId tx,
                  std::uint8_t mask, Tick now);

    /** Insert into L2; dirty victims merge into the LLC. */
    void insertL2(CoreId core, Addr line, const std::uint8_t *data,
                  bool dirty, bool persistent, CoreId writer, TxId tx,
                  std::uint8_t mask, Tick now);

    /** Insert into the LLC; victims are back-invalidated and evicted. */
    void insertLlc(CoreId core, Addr line, const std::uint8_t *data,
                   bool dirty, bool persistent, CoreId writer, TxId tx,
                   std::uint8_t mask, Tick now);

    /** Handle an LLC victim: merge upper copies, hand to controller. */
    void retireLlcVictim(CacheVictim &victim, Tick now);

    /**
     * Pull the freshest copy of @p line from other cores' private
     * caches into @p llc_line, invalidating them if @p exclusive.
     */
    void reconcileSharers(CoreId core, Addr line, CacheLine llc_line,
                          bool exclusive);

    /** Drop @p core from the sharer mask if its L1/L2 no longer hold
     *  @p line. */
    void updateSharerOnDrop(CoreId core, Addr line);

    /**
     * Line holding @p line's newest bytes: the first private copy in
     * core order (L1 before L2, the L1 copy being the newer), else
     * the LLC copy; an empty view when no cache holds the line. The
     * LLC is inclusive, so it is probed first and the private caches
     * are scanned only when it hits.
     */
    CacheLine newestCopy(Addr line) const;

    const SystemConfig &cfg;

    /** cfg.opCost(), computed once: every load and store charges it. */
    const Tick opCost_;

    PersistenceController *ctrl = nullptr;
    std::vector<std::unique_ptr<Cache>> l1s;
    std::vector<std::unique_ptr<Cache>> l2s;
    std::unique_ptr<Cache> llc_;

    /** Which cores may hold each LLC-resident line in L1/L2. */
    FlatMap<std::uint32_t> sharers;

    /**
     * Same-line word memo (cfg.fastPath only), the engine's one
     * same-line shortcut: the line resolved by this core's most recent
     * load/store, remembered so the next access to the same line —
     * typically the next word of a readBytes/writeBytes loop — can
     * take loadWordHit/storeWordHit without re-running the L1 set
     * scan, LLC lookup and sharer reconciliation, all provably no-ops
     * while the memo holds. Validity is guarded by structGen_:
     * any insertion, invalidation or sharer-stripping anywhere in the
     * hierarchy bumps the generation and kills every memo, so a memo
     * hit guarantees the line still sits in the same L1 way with the
     * same coherence state the resolution established. `exclusive` is
     * set only by store resolutions (which strip every other sharer);
     * loads may reuse any memo, stores require an exclusive one.
     */
    struct WordMemo
    {
        Addr line = kInvalidAddr;
        std::uint64_t gen = 0;
        bool exclusive = false;
        CacheLine view;
    };
    std::vector<WordMemo> memo_;

    /** Bumped on every structural mutation; see WordMemo. */
    std::uint64_t structGen_ = 0;

    /**
     * Debug-batch line memo (see beginDebugBatch): one fully
     * reconstructed line, valid only while a batch is open — the
     * caller guarantees nothing mutates between batched reads.
     * Mutable because debugRead is const and the memo is pure
     * host-side acceleration.
     */
    bool debugBatch_ = false;
    mutable Addr debugMemoLine_ = kInvalidAddr;
    mutable std::uint8_t debugMemoData_[kCacheLineSize];

    StatSet stats_;

    // Hot-path counters resolved once at construction (the StatSet
    // guarantees reference stability), so the per-access paths skip
    // the string-keyed registry lookup.
    Counter &loadsC_;
    Counter &storesC_;
    Counter &llcFillsC_;
    Counter &invalidationsC_;
    Counter &downgradesC_;
    Counter &backInvalidationsC_;
    Counter &llcDirtyWritebacksC_;

    /** Per-miss memory latency (fill completion minus request tick). */
    Histogram &llcMissLatH_;
};

} // namespace hoopnvm

#endif // HOOPNVM_MEM_CACHE_HIERARCHY_HH
