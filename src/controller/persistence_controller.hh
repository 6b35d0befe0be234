/**
 * @file
 * Abstract memory-controller persistence mechanism.
 *
 * Every crash-consistency scheme in the paper — HOOP itself and the five
 * reconstructed baselines — is a PersistenceController. The cache
 * hierarchy calls into the controller at the architectural points where
 * the real hardware would:
 *
 *  - storeWord()   on every transactional store (word granularity; the
 *                  cache controller forwards modified words, Fig. 6);
 *  - loadOverhead() on every load that misses the L1 (software schemes
 *                  such as LSM add index-lookup latency here);
 *  - fillLine()    on an LLC miss (schemes may redirect to out-of-place
 *                  locations or logs);
 *  - evictLine()   on an LLC dirty writeback (schemes decide whether the
 *                  line goes to the home region or elsewhere);
 *  - txBegin()/txEnd() at failure-atomic region boundaries;
 *  - maintenance() after every transaction (GC, checkpointing, log
 *                  truncation; each scheme tests its own trigger).
 *
 * Controllers are *functional*: the bytes they write to the NvmDevice
 * are real, so crash() + recover() can be verified to reproduce exactly
 * the committed-transaction state.
 */

#ifndef HOOPNVM_CONTROLLER_PERSISTENCE_CONTROLLER_HH
#define HOOPNVM_CONTROLLER_PERSISTENCE_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "nvm/nvm_device.hh"
#include "sim/crash_hook.hh"
#include "sim/system_config.hh"
#include "stats/stat_set.hh"

namespace hoopnvm
{

class OrderingTracker;
class TraceBuffer;

/**
 * Scheme-generic occupancy gauges snapshotted by the epoch sampler.
 * Each controller reports the state of whatever persistence structure
 * it maintains — HOOP its mapping table and OOP region, the log-based
 * baselines their log, OSP its shadow directory.
 */
struct ControllerGauges
{
    /** Live entries in the remap structure (mapping table, log index). */
    std::uint64_t mappingEntries = 0;

    /** Bytes held live in the scheme's persistence structure. */
    std::uint64_t structBytes = 0;

    /** Cumulative allocation backpressure stalls (monotonic). */
    std::uint64_t backpressureStalls = 0;

    // ---- Runtime fault tolerance (zero unless cfg.ft.enabled) ----

    /** Blocks/slots durably retired as bad (monotonic). */
    std::uint64_t retiredUnits = 0;

    /** Words the ECC delivered clean (monotonic). */
    std::uint64_t correctedWords = 0;

    /** Fraction of this scheme's capacity lost to retirement, [0,1]. */
    double degradedFraction = 0.0;

    /** Transactions rejected with a structured error (monotonic). */
    std::uint64_t txRejected = 0;
};

/** Result of servicing an LLC miss. */
struct FillResult
{
    /** Tick at which the fill data is available. */
    Tick completion = 0;

    /**
     * True if the filled line must be inserted dirty (it holds state
     * newer than the home region — e.g. HOOP reconstructed it from the
     * OOP region and dropped the mapping entry, §III-C).
     */
    bool dirty = false;

    /** True if the filled line must keep its persistent bit. */
    bool persistent = false;

    /** Transaction to re-associate with the line (if dirty). */
    TxId txId = kInvalidTxId;

    /** Words of the filled line that are newer than the home region. */
    std::uint8_t wordMask = 0;
};

/** Base class for all crash-consistency mechanisms. */
class PersistenceController
{
  public:
    PersistenceController(const std::string &name, NvmDevice &nvm,
                          const SystemConfig &cfg);
    virtual ~PersistenceController() = default;

    PersistenceController(const PersistenceController &) = delete;
    PersistenceController &operator=(const PersistenceController &) =
        delete;

    /** Which of the paper's schemes this controller implements. */
    virtual Scheme scheme() const = 0;

    // ---- Transaction lifecycle ----

    /** Open a failure-atomic region on @p core; returns its TxId. */
    virtual TxId txBegin(CoreId core, Tick now);

    /**
     * Open a failure-atomic region under an externally-assigned id
     * (multi-controller 2PC gives every participant the same global
     * TxId so recovery can correlate them, §III-I).
     */
    virtual TxId txBeginAs(CoreId core, Tick now, TxId forced);

    /**
     * Close the failure-atomic region on @p core, making it durable.
     * @return The tick at which durability is guaranteed (>= now).
     */
    virtual Tick txEnd(CoreId core, Tick now) = 0;

    bool inTx(CoreId core) const { return coreTx[core].active; }
    TxId currentTx(CoreId core) const { return coreTx[core].txId; }

    // ---- Cache hierarchy hooks ----

    /**
     * A transactional store of one word. Called on the critical path.
     * @return Extra critical-path ticks beyond the cache write itself.
     */
    virtual Tick storeWord(CoreId core, Addr addr,
                           const std::uint8_t *data, Tick now) = 0;

    /**
     * Extra critical-path ticks charged when a load misses the L1.
     * @p line is the line address; @p now is the tick the miss is known.
     */
    virtual Tick
    loadOverhead(CoreId core, Addr line, Tick now)
    {
        (void)core;
        (void)line;
        (void)now;
        return 0;
    }

    /** Service an LLC miss for @p line; fills @p buf (64 bytes). */
    virtual FillResult fillLine(CoreId core, Addr line,
                                std::uint8_t *buf, Tick now) = 0;

    /**
     * Handle an LLC dirty writeback. Off the critical path.
     * @p word_mask marks the words modified since the line last agreed
     * with the home region (0 means unknown / whole line).
     */
    virtual void evictLine(CoreId core, Addr line,
                           const std::uint8_t *data, bool persistent,
                           TxId tx, std::uint8_t word_mask,
                           Tick now) = 0;

    /**
     * Maintenance poll (GC, checkpointing, truncation), called by the
     * engine after every transaction. This is the one place a scheme
     * tests its trigger (a period, allocation pressure, dead log), so
     * a poll with nothing due must be cheap and change nothing.
     */
    virtual void
    maintenance(Tick now)
    {
        (void)now;
    }

    /**
     * One background scrub pass (runtime fault tolerance): proactively
     * read a few blocks/slots of this scheme's persistent structure,
     * count ECC corrections, and retire units that degraded past the
     * configured threshold. Driven by the System on the cfg.ft
     * scrubPeriod cadence; never called unless cfg.ft.enabled.
     * @return Completion tick of the pass's modelled traffic (>= now).
     */
    virtual Tick
    scrub(Tick now)
    {
        return now;
    }

    /** Snapshot this scheme's occupancy gauges (epoch sampler). */
    virtual ControllerGauges
    sampleGauges() const
    {
        return {};
    }

    /**
     * Address ranges of this scheme's persistent structure that hold
     * no live data right now — safe targets for wear-out (stuck-at)
     * fault injection. Under the program-verify contract, data only
     * lands on cells that were readable at write time, so scheduling
     * permanent faults over these ranges degrades capacity without
     * ever damaging committed state. Schemes without spare capacity
     * (in-place home region only) return nothing.
     */
    virtual std::vector<std::pair<Addr, Addr>>
    freeMediaRanges() const
    {
        return {};
    }

    /**
     * Finalize all pending background work (outstanding checkpoints,
     * partially filled OOP blocks, log truncation) so end-of-run
     * traffic measurements compare schemes fairly.
     * @return Completion tick.
     */
    virtual Tick
    drain(Tick now)
    {
        return now;
    }

    // ---- Crash and recovery ----

    /**
     * Power failure: volatile controller state disappears. The caches
     * are dropped separately by the System.
     */
    virtual void crash() = 0;

    /**
     * Rebuild a consistent home-region state from durable NVM contents.
     * @return Modelled recovery time in ticks with @p threads recovery
     * workers.
     */
    virtual Tick recover(unsigned threads) = 0;

    /**
     * Functional view of the line the memory system would return for
     * @p line right now if asked (ignoring caches). Used by debug reads
     * and verification, never timed.
     */
    virtual void debugReadLine(Addr line, std::uint8_t *buf) const;

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    NvmDevice &nvm() { return nvm_; }

    // ---- Persistency-ordering analysis ----

    /**
     * Attach the ordering analyzer (nullptr detaches). Virtual so
     * controllers that delegate rule tagging to sub-components (the
     * OOP region's / log ring's retirement machinery) can forward the
     * tracker; overrides must call the base.
     */
    virtual void setOrderingTracker(OrderingTracker *t) { ordering_ = t; }

    /** The attached analyzer, or nullptr when not armed. */
    OrderingTracker *ordering() const { return ordering_; }

    /**
     * Declare this scheme's durability happens-before rules into @p t.
     * Called once when the analyzer is armed; implementations then tag
     * the runtime via orderDep()/orderTrigger() at the matching sites.
     */
    virtual void
    declareOrderingRules(OrderingTracker &t)
    {
        (void)t;
    }

    // ---- Tracing ----

    /** Attach the system's trace buffer (nullptr detaches). */
    void setTrace(TraceBuffer *t) { trace_ = t; }

    /** The attached trace buffer, or nullptr when tracing is off. */
    TraceBuffer *trace() const { return trace_; }

    // ---- Crash-point injection ----

    /** Attach the system's crash hook (nullptr detaches). */
    void setCrashHook(CrashHook *hook) { crashHook_ = hook; }
    CrashHook *crashHook() const { return crashHook_; }

    /**
     * Fire one crash-point event of class @p k if a hook is attached.
     * Called from the controller's own mechanisms (GC migration,
     * checkpointing, log truncation, recovery replay) and from the
     * cache hierarchy at eviction drains. May throw SimCrash.
     *
     * Fire it only on the calling thread: a SimCrash unwinding any
     * other host thread would terminate the process.
     */
    void
    crashStep(CrashPointKind k)
    {
        if (crashHook_)
            crashHook_->step(k);
    }

  protected:
    /** Per-core transaction state. */
    struct CoreTxState
    {
        bool active = false;
        TxId txId = kInvalidTxId;
    };

    /** Allocate the next transaction id. */
    TxId allocTxId() { return nextTxId++; }

    /** True once @p tx has begun here (ids count up from 1). */
    bool txBegun(TxId tx) const { return tx != 0 && tx < nextTxId; }

    /** Allocate the next commit (durability order) id. */
    std::uint64_t allocCommitId() { return nextCommitId++; }

    /** Restart id allocation after recovery (ids must not repeat). */
    void
    restartIds(TxId next_tx, std::uint64_t next_commit)
    {
        nextTxId = next_tx;
        nextCommitId = next_commit;
    }

    // Null-safe forwarding to the attached ordering analyzer (see
    // OrderingTracker for the semantics). Out of line: the tracker is
    // an incomplete type here.

    /** Tag the write just issued as a dependency of @p rule. */
    void orderDep(const char *rule, std::uint64_t key);

    /** Claim @p rule's guarantee for group @p key; see trigger(). */
    void orderTrigger(const char *rule, std::uint64_t key,
                      Tick ack = 0, std::size_t minDeps = 0,
                      bool consume = true);

    /** Retire every dependency group of @p rule. */
    void orderClear(const char *rule);

    NvmDevice &nvm_;
    const SystemConfig &cfg;
    StatSet stats_;

    // Hot-path counter resolved once; StatSet references stay valid for
    // the StatSet's lifetime. Derived controllers follow the same
    // pattern for their per-event counters.
    Counter &txBegunC_;

    std::vector<CoreTxState> coreTx;

  private:
    TxId nextTxId = 1;
    std::uint64_t nextCommitId = 1;
    CrashHook *crashHook_ = nullptr;
    OrderingTracker *ordering_ = nullptr;
    TraceBuffer *trace_ = nullptr;
};

} // namespace hoopnvm

#endif // HOOPNVM_CONTROLLER_PERSISTENCE_CONTROLLER_HH
