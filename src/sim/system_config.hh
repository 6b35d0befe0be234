/**
 * @file
 * Whole-system configuration, defaulted to the paper's Table II setup:
 * 2.5 GHz cores, 32 KB 4-way L1, 256 KB 8-way inclusive L2, 2 MB 16-way
 * inclusive LLC, NVM with 50/150 ns read/write latency, plus the HOOP
 * structure sizes from §III-H (2 MB mapping table, 1 KB per-core OOP
 * data buffer, 128 KB eviction buffer, 2 MB OOP blocks, 10 ms GC period).
 *
 * The simulated physical address space is laid out as:
 *
 *   [0, homeBytes)                      home region (application data)
 *   [oopBase, oopBase + oopBytes)       HOOP out-of-place region
 *   [auxBase, auxBase + auxBytes)       baseline log / shadow regions
 */

#ifndef HOOPNVM_SIM_SYSTEM_CONFIG_HH
#define HOOPNVM_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "nvm/energy_model.hh"
#include "nvm/nvm_timing.hh"

namespace hoopnvm
{

/** Crash-consistency scheme selector (the paper's six systems). */
enum class Scheme
{
    Native,  ///< No persistence guarantee ("Ideal" in Fig. 7).
    Hoop,    ///< Hardware-assisted out-of-place update (this paper).
    OptRedo, ///< Hardware redo logging after WrAP [13].
    OptUndo, ///< Hardware undo logging after ATOM [24].
    Osp,     ///< Optimized shadow paging after SSP [38], [39].
    Lsm,     ///< Log-structured NVM after LSNVMM [17].
    Lad,     ///< Logless atomic durability after LAD [16].
};

/** Printable name of @p s ("HOOP", "Opt-Redo", ...). */
const char *schemeName(Scheme s);

/** Lowercase token of @p s used on the command line and in JSON
 *  ("native", "hoop", "redo", "undo", "osp", "lsm", "lad"). */
const char *schemeToken(Scheme s);

/** Inverse of schemeToken(). @return false on an unknown token. */
bool schemeFromToken(const std::string &token, Scheme *out);

/** All schemes in the order the paper's figures list them. */
inline constexpr Scheme kAllSchemes[] = {
    Scheme::OptRedo, Scheme::OptUndo, Scheme::Osp,
    Scheme::Lsm,     Scheme::Lad,     Scheme::Hoop,
    Scheme::Native,
};

/** The six schemes that claim durability (all but Native), in the
 *  order the checkers sweep them ("--scheme all"). */
inline constexpr Scheme kDurableSchemes[] = {
    Scheme::Hoop, Scheme::OptRedo, Scheme::OptUndo,
    Scheme::Osp,  Scheme::Lsm,     Scheme::Lad,
};

/** Most cores a System supports (the caches' sharer mask width). */
inline constexpr unsigned kMaxCores = 32;

/** Cache hierarchy geometry and latencies. */
struct CacheParams
{
    std::uint64_t l1Size = kiB(32);
    unsigned l1Assoc = 4;
    Tick l1Latency = nsToTicks(1.6); // 4 cycles @ 2.5 GHz

    std::uint64_t l2Size = kiB(256);
    unsigned l2Assoc = 8;
    Tick l2Latency = nsToTicks(4.8); // 12 cycles

    std::uint64_t llcSize = miB(2);
    unsigned llcAssoc = 16;
    Tick llcLatency = nsToTicks(16); // 40 cycles
};

/**
 * Runtime media-fault tolerance: k-bit-correcting ECC on the read
 * path, seeded read retries for transient faults, a background
 * scrubber, and bad-block/slot retirement with graceful capacity
 * degradation. Disabled by default — every knob below is inert until
 * `enabled` is set, so fault-free runs are bit-identical to builds
 * without the subsystem.
 */
struct FaultToleranceConfig
{
    /** Master switch for ECC, retries, scrub and retirement. */
    bool enabled = false;

    /**
     * Bits per 8-byte word the modelled ECC corrects in-line. Faulty
     * words with at most this many affected bits are delivered clean
     * (counted, and charged the correction surcharge below); words
     * beyond it surface as uncorrectable unless a retry clears them.
     */
    unsigned eccCorrectBits = 1;

    /** Latency surcharge per ECC-corrected word on a timed read. */
    Tick eccCorrectCost = nsToTicks(20);

    /**
     * Maximum read retries after an uncorrectable first attempt.
     * Transient (read-disturb) faults clear after a seeded number of
     * attempts; stuck-at faults never do, so retries are bounded.
     */
    unsigned readRetryMax = 4;

    /** Modelled backoff added to the completion tick per retry. */
    Tick readRetryBackoff = nsToTicks(100);

    /**
     * Simulated-time cadence of the background scrubber (0 disables).
     * Each pass proactively reads a few blocks/slots, counts corrected
     * words, and retires blocks whose free slots fail program-verify.
     */
    Tick scrubPeriod = nsToTicks(2e6);

    /** OOP blocks (or log-slot stripes) examined per scrub pass. */
    std::uint32_t scrubChunks = 4;

    /**
     * Retire a block once this fraction of its slice slots failed
     * program-verify (skipped at write time as uncorrectable).
     */
    double retireBadSlotFraction = 0.25;

    /**
     * Reject new transactions (TxRejected, ENOSPC-style) once the
     * retired fraction of the OOP region / log ring reaches this —
     * graceful degradation instead of a backpressure wedge.
     */
    double rejectCapacityFraction = 0.5;
};

/** Complete configuration of one simulated system. */
struct SystemConfig
{
    /** Number of cores / workload threads (paper runs 8 threads);
     *  1..kMaxCores. */
    unsigned numCores = 8;

    /** Core clock in GHz; non-memory work is charged in core cycles. */
    double cpuGhz = 2.5;

    /** Core cycles charged per executed load/store beyond memory time. */
    unsigned opCycles = 1;

    CacheParams cache;
    NvmTiming nvm;
    EnergyParams energy;

    /** Home region size (application-visible NVM). */
    std::uint64_t homeBytes = miB(512);

    /** OOP region size; the paper reserves ~10% of capacity. */
    std::uint64_t oopBytes = miB(48);

    /** Auxiliary region for baseline logs / shadow copies. */
    std::uint64_t auxBytes = miB(512) + miB(64);

    // ---- HOOP parameters (§III-H) ----

    /** Total mapping table capacity in bytes (2 MB default). */
    std::uint64_t mappingTableBytes = miB(2);

    /** Per-core OOP data buffer (1 KB default). */
    std::uint64_t oopDataBufferBytesPerCore = kiB(1);

    /** Eviction buffer capacity (128 KB default). */
    std::uint64_t evictionBufferBytes = kiB(128);

    /** OOP block size (2 MB default). */
    std::uint64_t oopBlockBytes = miB(2);

    /** Periodic GC trigger threshold (10 ms default, Fig. 10 sweeps). */
    Tick gcPeriod = nsToTicks(10e6);

    /** Enable word-granularity data packing (ablation switch). */
    bool dataPacking = true;

    /** Enable GC data coalescing (ablation switch). */
    bool gcCoalescing = true;

    /**
     * Enable periodic / pressure-triggered GC. When false the OOP
     * region fills until writers hit allocation backpressure (on-demand
     * GC on the critical path) — used by the exhaustion regression
     * tests. Explicit drain() still collects.
     */
    bool gcEnabled = true;

    /**
     * Deliberately broken commit path for checker validation: txEnd
     * acknowledges the commit without waiting for the commit record
     * (and the tail of the slice chain) to become durable. A crash
     * shortly after commit can then tear the record of an already
     * acknowledged transaction — exactly the bug class hoop_crashcheck
     * must catch. Never enable outside tests.
     */
    bool debugNoCommitFence = false;

    /**
     * Deliberately broken commit ack for checker validation: baseline
     * controllers (Opt-Redo, Opt-Undo, LSM, OSP) acknowledge the commit
     * at issue time instead of at the durability tick of their log /
     * shadow writes. The ordering analyzer's durable-by-ack rules must
     * flag every such commit. Never enable outside tests.
     */
    bool debugEarlyCommitAck = false;

    /**
     * Deliberately skip the settleUpTo() durability fences (HOOP GC
     * watermark/recycle, Opt-Redo and LSM log truncation, LAD commit
     * drain) while keeping the timing unchanged. Reintroduces the
     * torn-write bug class those fences exist to prevent; the ordering
     * analyzer's settled-at-trigger rules must flag it. Never enable
     * outside tests.
     */
    bool debugSkipSettleFences = false;

    /**
     * Deliberately skip appending the undo pre-image on first touch
     * (Opt-Undo only), breaking write-ahead logging. The analyzer's
     * issued-before-trigger rule must flag the in-place home writes.
     * Never enable outside tests.
     */
    bool debugSkipUndoLog = false;

    // ---- Baseline parameters ----

    /** Cost of one TLB shootdown charged to OSP commits. */
    Tick tlbShootdownCost = nsToTicks(1800);

    /** Commit handshake between cache and memory controller (LAD). */
    Tick ladCommitOverhead = nsToTicks(120);

    /** DRAM access latency used by LSM's software index walks. */
    Tick dramLatency = nsToTicks(30);

    /** CPU cycles of software bookkeeping per LSM index operation. */
    unsigned lsmIndexCycles = 24;

    // ---- Observability ----

    /**
     * Simulated-time period of the epoch gauge sampler. Every period
     * the System snapshots occupancy gauges (mapping-table entries,
     * OOP live bytes, in-flight writes, backpressure stalls) into the
     * epoch ring buffer. Zero disables sampling.
     */
    Tick epochSamplePeriod = nsToTicks(50e3);

    /**
     * Capacity of the epoch ring buffer. When full, the oldest samples
     * are dropped so a long run keeps its most recent history.
     */
    std::size_t epochRingCapacity = 256;

    // ---- Simulation engine ----

    /**
     * Use the batched fast paths (line-granularity range access and
     * event-driven maintenance scheduling). The fast paths are an
     * execution-strategy change only — every metric, histogram, epoch
     * sample and crash schedule is bit-identical to the reference
     * word-at-a-time/polled engine (fastpath_equiv_test asserts this
     * over the scheme × workload matrix). Off = reference engine, kept
     * for differential verification.
     */
    bool fastPath = true;

    /**
     * Coroutine-style miss overlap: up to this many outstanding
     * line-fill misses per core before the front-end stalls. 1 is the
     * classic blocking core (every miss serializes on its own
     * completion) and is guaranteed bit-identical to the historical
     * engine. Depth K > 1 models a prefetching/coroutine front-end
     * (interference suite, ROADMAP item 3): a scalar load whose fill
     * takes at least the NVM read latency is entered into a per-core
     * window instead of stalling, and the core only waits for the
     * oldest fill once K are outstanding (and for all of them at
     * transaction end — commits never overtake their own reads).
     * Stores and multi-word range reads remain blocking.
     */
    unsigned missOverlapDepth = 1;

    // ---- Runtime fault tolerance ----

    /** Media-fault tolerance subsystem (off by default). */
    FaultToleranceConfig ft;

    /** RNG seed for workloads. */
    std::uint64_t seed = 42;

    /** Duration of one core cycle. */
    Tick
    cycle() const
    {
        return nsToTicks(1.0 / cpuGhz);
    }

    /** Base cost of one executed memory operation. */
    Tick
    opCost() const
    {
        return opCycles * cycle();
    }

    Addr homeBase() const { return 0; }
    Addr oopBase() const { return homeBytes; }
    Addr auxBase() const { return homeBytes + oopBytes; }

    /** Total simulated NVM capacity. */
    std::uint64_t
    nvmCapacity() const
    {
        return homeBytes + oopBytes + auxBytes;
    }
};

} // namespace hoopnvm

#endif // HOOPNVM_SIM_SYSTEM_CONFIG_HH
