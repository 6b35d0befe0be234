/**
 * @file
 * Three-level cache hierarchy: private L1/L2 per core and a shared,
 * inclusive LLC, backed by a PersistenceController.
 *
 * The hierarchy is functional (lines carry data) and timed (each level
 * adds its hit latency; misses add the controller's fill latency). The
 * inclusive LLC is the single home of every cached line: its way holds
 * the line's 64-byte payload and its sharer mask, and the L1/L2 ways
 * that hold the line refer to that way, so loads read and stores write
 * the one copy. Each level keeps its own presence, LRU and state
 * (CacheLineMeta: dirty, persistent, word mask, writer, transaction),
 * so a dirty eviction moves state alone, L1 -> L2 -> LLC. L1 is inside
 * L2, and the sharer mask names exactly the cores whose L1/L2 hold the
 * line. One routine, dropCopies, takes a line from a core: for a
 * store by another core, for a load that finds the core's copy dirty,
 * for an L2 victim's L1 copy, for an LLC victim (back-invalidation)
 * and for the final write-back. LLC victims leave with their state
 * merged and go to the controller, which is where crash-consistency
 * schemes differ (home region vs out-of-place).
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
     * once per word (each resolution probes the LLC and on a miss
     * rebuilds the line from controller metadata). The caller promises
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
     * Skips the redundant L1 set scan and sharer reconciliation (the
     * line is already exclusive, so those are no-ops on the resolving
     * path too) while applying the identical stat, LRU, latency and
     * controller-hook effects.
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

    /**
     * Promote LLC-resident @p line, whose LLC way is @p home, clean
     * into this core's L1; a dirty L1 victim writes back into L2.
     */
    void insertL1(CoreId core, Addr line, std::uint32_t home);

    /**
     * Insert @p line (LLC way @p home) into L2 in state @p state; a
     * victim's state, merged with its L1 copy's, writes back into the
     * LLC when dirty.
     */
    void insertL2(CoreId core, Addr line, std::uint32_t home,
                  const CacheLineMeta &state);

    /**
     * Fill @p line into the LLC with the controller's bytes and state;
     * the victim is back-invalidated and, when dirty, handed to the
     * controller.
     * @return The filled LLC line.
     */
    CacheLine fillLlc(CoreId core, Addr line, const std::uint8_t *data,
                      const FillResult &fr, Tick now);

    /**
     * Take @p line, whose LLC way is @p home, from @p core: fold the
     * core's L2 and then its L1 copy into @p into (a dirty L1 copy
     * wins the merge), drop both and clear the core's sharer bit. The
     * only code that takes a line from a core's private caches.
     * @p l1Only skips the L2 lookup, for a caller whose refill has
     * just evicted the line from L2.
     * @return The number of copies dropped (0-2).
     */
    unsigned dropCopies(CoreId core, Addr line, std::uint32_t home,
                        CacheLineMeta &into, bool l1Only = false);

    /**
     * Record @p core as a sharer of @p line and take the line from the
     * other cores that hold it, folding their state into @p llc_line:
     * a store (@p exclusive) takes every copy, a load only a core's
     * copies one of which is dirty.
     */
    void reconcileSharers(CoreId core, Addr line, CacheLine llc_line,
                          bool exclusive);

    const SystemConfig &cfg;

    PersistenceController *ctrl = nullptr;
    /** Built before l1s/l2s, whose ways refer to its ways. */
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Cache>> l1s;
    std::vector<std::unique_ptr<Cache>> l2s;

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
