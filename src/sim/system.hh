/**
 * @file
 * The complete simulated system: cores, cache hierarchy, persistence
 * controller (selected by Scheme) and the NVM device, wired per the
 * paper's Table II configuration.
 *
 * System is the public API workloads and benches program against:
 * transactional word loads/stores with failure-atomic regions, crash
 * injection, recovery, and measurement collection.
 */

#ifndef HOOPNVM_SIM_SYSTEM_HH
#define HOOPNVM_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "controller/persistence_controller.hh"
#include "mem/cache_hierarchy.hh"
#include "nvm/nvm_device.hh"
#include "sim/core.hh"
#include "sim/crash_hook.hh"
#include "sim/system_config.hh"
#include "txn/sim_allocator.hh"

namespace hoopnvm
{

class TraceBuffer;

/** Quantile summary of one latency histogram, in nanoseconds. */
struct LatencySummary
{
    std::uint64_t count = 0;
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;

    /** Extreme tail (p999). */
    double p999Ns = 0.0;

    double maxNs = 0.0;
    double meanNs = 0.0;

    // Saturation markers (Histogram::quantileSaturated): true when the
    // matching quantile fell under the exact-max rule because the
    // population is too small to resolve it (count < ~1/(1-q)). The
    // value is then the exact max, not an interpolated quantile —
    // dumps mark these so under-populated tails are not mistaken for
    // resolved ones.
    bool p50Saturated = false;
    bool p95Saturated = false;
    bool p99Saturated = false;
    bool p999Saturated = false;
};

/** One snapshot of the system's occupancy gauges (epoch sampler). */
struct EpochSample
{
    /** Simulated tick the sample was taken at. */
    Tick at = 0;

    /** Live entries in the scheme's remap structure. */
    std::uint64_t mappingEntries = 0;

    /** Bytes live in the scheme's persistence structure (OOP, log). */
    std::uint64_t structBytes = 0;

    /** Cumulative allocation backpressure stalls at this epoch. */
    std::uint64_t backpressureStalls = 0;

    /** NVM writes issued but not yet settled (fault-model tracked). */
    std::uint64_t inflightWrites = 0;

    // ---- Media-fault tolerance gauges (zero unless cfg.ft.enabled) --

    /** Blocks (HOOP) or log slots (baselines) durably retired. */
    std::uint64_t retiredUnits = 0;

    /** Cumulative words repaired by the modelled ECC on reads. */
    std::uint64_t correctedWords = 0;

    /** Fraction of scheme capacity lost to retirement, in [0, 1]. */
    double degradedFraction = 0.0;

    /** Transactions rejected (admission or capacity exhaustion). */
    std::uint64_t txRejected = 0;

    // ---- NVM channel gauges (interference suite) ----

    /** Cumulative ticks the channel was occupied (transfer + busy). */
    std::uint64_t channelBusyTicks = 0;

    /** Cumulative ticks accesses queued behind a busy channel. */
    std::uint64_t channelWaitTicks = 0;
};

/**
 * Per-role slice of an interference run: one entry per workload role
 * (log-append, point-read, seq-scan, gc-pressure) with cores assigned
 * to it. Populated from the `role_*_ticks` histograms the interference
 * workload records into the system StatSet; empty for every other
 * workload.
 */
struct RoleMetrics
{
    std::string name;

    /** Transactions this role's cores committed in the window. */
    std::uint64_t transactions = 0;

    /** Role-aggregate committed transactions per simulated second. */
    double txPerSecond = 0.0;

    /** Per-transaction latency distribution for this role. */
    LatencySummary latency;
};

/** Measurement snapshot of one run. */
struct RunMetrics
{
    std::uint64_t transactions = 0;
    Tick simTicks = 0;

    /** Committed transactions per simulated second. */
    double txPerSecond = 0.0;

    /** Mean Tx_begin..Tx_end latency in nanoseconds (Fig. 7b). */
    double avgCriticalPathNs = 0.0;

    std::uint64_t nvmBytesWritten = 0;
    std::uint64_t nvmBytesRead = 0;

    /** Bytes written to NVM per committed transaction (Fig. 8). */
    double bytesWrittenPerTx = 0.0;

    /** NVM access energy in picojoules (Fig. 9). */
    double energyPj = 0.0;

    double llcMissRatio = 0.0;

    /** Tx_begin..Tx_end latency distribution (Fig. 7b tails). */
    LatencySummary critPath;

    /** Per-LLC-miss memory latency distribution. */
    LatencySummary llcMiss;

    /** GC / maintenance pause distribution (Fig. 10). */
    LatencySummary gcPause;

    /** Background scrub pause distribution (media tolerance). */
    LatencySummary scrubPause;

    // ---- Media-fault tolerance (zero unless cfg.ft.enabled) ----

    /** Words repaired by the modelled ECC during the run. */
    std::uint64_t eccCorrectedWords = 0;

    /** Reads still uncorrectable after ECC and bounded retry. */
    std::uint64_t uncorrectableReads = 0;

    /** Read retries issued by the device's bounded-retry policy. */
    std::uint64_t readRetries = 0;

    /** Capacity units (blocks / log slots) durably retired. */
    std::uint64_t retiredUnits = 0;

    /** Transactions rejected instead of aborting the process. */
    std::uint64_t txRejected = 0;

    /** Fraction of scheme capacity lost to retirement, in [0, 1]. */
    double degradedFraction = 0.0;

    // ---- NVM channel occupancy (interference suite) ----

    /** Ticks the channel spent occupied (transfer + bank busy). */
    std::uint64_t channelBusyTicks = 0;

    /** Ticks accesses spent queued behind a busy channel. */
    std::uint64_t channelWaitTicks = 0;

    /** Drain fences issued (GC watermark / log truncation barriers). */
    std::uint64_t drainFences = 0;

    /** channelBusyTicks / simTicks, in [0, ~1]. */
    double channelUtilization = 0.0;

    /** Per-role interference metrics (empty outside the suite). */
    std::vector<RoleMetrics> roles;

    /** Epoch gauge samples, oldest first (ring-buffer bounded). */
    std::vector<EpochSample> epochs;
};

/** A full simulated machine running one persistence scheme. */
class System
{
  public:
    /** Build a system; @p cfg is copied and owned. */
    System(const SystemConfig &cfg, Scheme scheme);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // ---- Transactional execution API ----

    /** Open a failure-atomic region on @p core. */
    void txBegin(CoreId core);

    /** Close and durably commit the region on @p core. */
    void txEnd(CoreId core);

    /** Timed word load. */
    std::uint64_t loadWord(CoreId core, Addr addr);

    /**
     * Advance @p core's clock by @p d ticks of deliberate idleness
     * (open-loop pacing: the interference workload's saturation knob
     * inserts think-time gaps between transactions). Must be called
     * outside a failure-atomic region.
     */
    void idle(CoreId core, Tick d);

    /** Timed word store (transactional if inside a region). */
    void storeWord(CoreId core, Addr addr, std::uint64_t value);

    /** Timed multi-word read, one loadWord() per word; addr and len
     *  must be word-aligned. */
    void readBytes(CoreId core, Addr addr, void *buf, std::size_t len);

    /** Timed multi-word write, one storeWord() per word; addr and len
     *  must be word-aligned. */
    void writeBytes(CoreId core, Addr addr, const void *buf,
                    std::size_t len);

    /** Allocate simulated home-region memory from @p core's arena. */
    Addr alloc(CoreId core, std::uint64_t size,
               std::uint64_t align = kWordSize);

    /** Untimed setup write straight into the home region. */
    void pokeInit(Addr addr, const void *buf, std::size_t len);

    /** Untimed coherent read (caches, then controller view). */
    void debugRead(Addr addr, void *buf, std::size_t len) const;

    /** Untimed coherent word read. */
    std::uint64_t debugLoadWord(Addr addr) const;

    // ---- Crash & recovery ----

    /**
     * Arrange for SimCrash to be thrown after @p n more stores
     * (0 disables). Convenience wrapper over
     * crashHook().arm(CrashPointKind::Store, n).
     */
    void scheduleCrashAfterStores(std::uint64_t n);

    /**
     * Arrange for SimCrash to be thrown inside the @p n-th next txEnd
     * (1 = the very next commit; 0 disables), after the controller has
     * issued the commit record but before the commit is acknowledged
     * to the core. At that point the record write is still in flight,
     * so with torn writes enabled it is exactly the write a crash can
     * tear — the window scheduleCrashAfterStores() can never hit.
     */
    void scheduleCrashAtCommit(std::uint64_t n);

    /**
     * Full crash-point injection interface: arm/disarm any boundary
     * class (stores, evictions, commit records, GC steps, recovery
     * steps) and read per-class event counts. The controller, cache
     * hierarchy, GC and recovery all fire through this one hook.
     */
    CrashHook &crashHook() { return crashHook_; }
    const CrashHook &crashHook() const { return crashHook_; }

    /**
     * Power failure: caches and volatile controller state vanish, and
     * the NVM fault injector resolves which in-flight writes tore
     * (see NvmDevice::faults()).
     */
    void crash();

    /** Run the scheme's recovery. @return modelled recovery ticks. */
    Tick recover(unsigned threads);

    // ---- Persistency-ordering analysis ----

    /**
     * Arm (or with nullptr disarm) the persistency-ordering analyzer:
     * hooks it into the NVM device's timed write stream and has the
     * controller declare its durability rules into it. The tracker must
     * outlive the system or be disarmed first.
     */
    void armOrdering(OrderingTracker *tracker);

    // ---- Engine hooks ----

    /** Invoke controller maintenance at the trailing core clock. */
    void maintenance();

    /** Flush caches and drain background work (end of measurement). */
    void finalize();

    /** Collect a metrics snapshot (call after finalize()). */
    RunMetrics metrics() const;

    /** Begin a measurement interval (resets traffic counters). */
    void beginMeasurement();

    // ---- Accessors ----

    Core &core(CoreId c) { return cores_[c]; }
    Tick minClock() const { return clockTracker_.min(); }
    Tick maxClock() const { return clockTracker_.max(); }
    const SystemConfig &config() const { return cfg_; }
    Scheme scheme() const { return scheme_; }
    NvmDevice &nvm() { return *nvm_; }
    CacheHierarchy &caches() { return *caches_; }
    PersistenceController &controller() { return *ctrl_; }
    SimAllocator &allocator() { return *alloc_; }

    /** Committed transactions since the last beginMeasurement(). */
    std::uint64_t committedTx() const { return committedTx_; }

    /** Sum of commit latencies since the last beginMeasurement(). */
    Tick criticalPathSum() const { return criticalPathSum_; }

    /** System-level statistics (critical-path histogram et al.). */
    const StatSet &stats() const { return stats_; }

    /**
     * Mutable statistics access for workloads that register their own
     * histograms (the interference suite's per-role latency series).
     * Resolve handles in constructors/setup, never on hot paths (the
     * lint stats-lookup rule applies to callers too).
     */
    StatSet &stats() { return stats_; }

    /** Epoch gauge samples collected so far, oldest first. */
    std::vector<EpochSample> epochSamples() const;

  private:
    /** Take an epoch gauge sample if the period has elapsed. */
    void sampleEpoch(Tick now);

    SystemConfig cfg_;
    Scheme scheme_;
    std::unique_ptr<NvmDevice> nvm_;
    std::unique_ptr<PersistenceController> ctrl_;
    std::unique_ptr<CacheHierarchy> caches_;
    std::unique_ptr<SimAllocator> alloc_;
    std::vector<Core> cores_;

    /**
     * Incremental min/max over the core clocks; each Core mirrors its
     * clock into the tracker so minClock()/maxClock() are O(1) instead
     * of scans. Used on both engines: it holds exactly the values a
     * scan would see (clock_tracker_test checks it against one, and
     * fastpath_equiv_test checks both queries against a scan of the
     * cores after every cell).
     */
    ClockTracker clockTracker_;

    std::uint64_t committedTx_ = 0;
    Tick criticalPathSum_ = 0;
    CrashHook crashHook_;
    Tick measureStart = 0;

    StatSet stats_;
    Histogram &critPathH_;

    /** Epoch gauge ring buffer (oldest overwritten when full). */
    std::vector<EpochSample> epochRing_;
    std::size_t epochHead_ = 0;
    Tick nextEpoch_ = 0;

    /** Next background-scrub tick (cfg.ft.scrubPeriod cadence). */
    Tick nextScrub_ = 0;

    /** Present only when tracing is armed (HOOP_TRACE). */
    std::unique_ptr<TraceBuffer> trace_;
};

/** Instantiate the persistence controller for @p scheme. */
std::unique_ptr<PersistenceController>
makeController(Scheme scheme, NvmDevice &nvm, const SystemConfig &cfg);

} // namespace hoopnvm

#endif // HOOPNVM_SIM_SYSTEM_HH
