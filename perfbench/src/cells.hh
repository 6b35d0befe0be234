/**
 * @file
 * The benchmark's cell runner: runs one simulated system through the
 * library's public API and times each layer from outside.
 *
 * A cell is one (scheme, workload, config) system. runCell() builds it
 * with the workload factory, calls Workload::setup on every core,
 * starts statistics at System::beginMeasurement() with the modelled
 * caches empty, then runs a closed loop: the core with the lowest
 * clock runs its next transaction, followed by one maintenance poll.
 * finalize(), metrics() and verify() close the window. That is exactly
 * runWorkload's loop, and checkFidelity() proves it bit for bit.
 *
 * HOOP cells may continue past the window with a short tail of
 * transactions, crash, model recovery at 1, 4 and 16 threads and then
 * recover for real and verify the recovered home image.
 *
 * Host spans wrap the public calls into each layer (setup, the
 * transaction body, maintenance, finalize, verify, recovery). They are
 * only recorded on traced runs; untraced runs read the clock a handful
 * of times per cell.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/crash_explorer.hh"
#include "sim/system.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace hoopnvm;

/** Host monotonic time in seconds. */
double hostNow();

/** CPU time of the calling thread in seconds. */
double threadCpuNow();

/**
 * Thread CPU seconds the reference kernel takes on the host the
 * benchmark was tuned on (a shared 4-vCPU Xeon VM).
 */
constexpr double kRefKernelS = 0.025;

/**
 * Thread CPU seconds of one run of the reference kernel: a dependent
 * walk over a 16 MiB random cycle with a multiply chain per step.
 */
double refKernelS();

/**
 * How much faster this thread ran than the reference host, from kernel
 * runs just before and just after a span on the same thread: kRefKernelS
 * over their mean. The span's thread CPU time times this factor is its
 * cost in reference-host seconds. On a shared host the speed of a core
 * drifts by tens of percent over minutes; the factor takes much of that
 * drift out.
 */
double refSpeed(double kernel_before_s, double kernel_after_s);

/** One host span, Chrome trace "X" event fields. */
struct Span
{
    std::string name;
    const char *cat = "";
    unsigned tid = 0;
    double startS = 0.0;
    double durS = 0.0;
};

/** Host seconds a cell spent in each layer (summed over its calls). */
struct HostLayers
{
    double cell = 0.0;        ///< whole cell, root span
    double setup = 0.0;       ///< System build + factory + setup

    /** Thread CPU time of the cell and of its setup, reference s. */
    double cellRef = 0.0;
    double setupRef = 0.0;
    /**
     * Workload::runTransaction, window and tail. Untraced runs time the
     * loop as a whole, so there it includes the maintenance polls.
     */
    double tx = 0.0;
    double maintenance = 0.0; ///< System::maintenance polls (traced)
    double finalize = 0.0;    ///< System::finalize
    double verify = 0.0;      ///< Workload::verify (window)
    double recovery = 0.0;    ///< crash, modelRecovery, recover, re-verify
    double schedules = 0.0;   ///< explore() schedules (crash_sweep)

    /** Per-transaction host ns (traced runs only). */
    std::vector<std::uint32_t> txNs;

    void add(const HostLayers &o);
};

/** HOOP recovery measured on a crashed cell. */
struct RecoveryProbe
{
    bool ran = false;
    Tick t1 = 0;
    Tick t4 = 0;
    Tick t16 = 0;
    std::uint64_t slicesScanned = 0;
    std::uint64_t bytesScanned = 0;
    std::uint64_t txReplayed = 0;

    /** Every workload verified against its shadow after recover(). */
    bool imageOk = false;
};

/**
 * Window deltas of the layer counters read through the public stats()
 * accessors (controller counters accumulate from construction, so the
 * benchmark snapshots them at beginMeasurement).
 */
struct LayerCounters
{
    // mem
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t llcFills = 0;
    std::uint64_t llcWritebacks = 0;

    // hoop controller and GC
    std::uint64_t dataSlices = 0;
    std::uint64_t addrSlices = 0;
    std::uint64_t txWords = 0;
    std::uint64_t mappingHits = 0;
    std::uint64_t parallelReads = 0;
    std::uint64_t stallTicks = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t gcNoopRuns = 0;
    std::uint64_t gcSlicesScanned = 0;
    std::uint64_t gcHomeLines = 0;

    // opt-redo
    std::uint64_t logEntries = 0;
};

/** One cell to run. */
struct CellSpec
{
    std::string label;
    Scheme scheme = Scheme::Hoop;
    WorkloadFactory factory;
    SystemConfig cfg;
    std::uint64_t txPerCore = 0;

    /** HOOP only: transactions per core after the window, then crash. */
    std::uint64_t tailTxPerCore = 0;

    /**
     * HOOP only: crash at the end of the window instead of finalizing,
     * so the OOP region is still full; metrics() is read before the
     * crash and verify() checks the recovered image.
     */
    bool crashAfterWindow = false;

    /**
     * False for a cell that only feeds per-layer metrics: the simulated
     * end-to-end figures leave it out.
     */
    bool endToEnd = true;
};

/** Everything one cell produced. */
struct CellResult
{
    RunMetrics m;
    bool verified = false;

    /** Transactions run (window plus tail). */
    std::uint64_t txRun = 0;

    LayerCounters ctr;
    RecoveryProbe rec;
    HostLayers host;
    std::vector<Span> spans;
};

/**
 * Run @p spec. With @p traced, record spans (tid @p tid) and
 * per-transaction host times.
 */
CellResult runCell(const CellSpec &spec, bool traced, unsigned tid);

/** One crash_sweep cell: an explore() sweep. */
struct ExploreCell
{
    ExploreReport report;
    HostLayers host;

    /** Host ms of each schedule, from the progress callbacks. */
    std::vector<double> scheduleMs;
    std::vector<Span> spans;
};

/** Run explore(@p opt), timing each schedule between callbacks. */
ExploreCell runExploreCell(ExploreOptions opt, bool traced, unsigned tid);

/**
 * Run one small cell per scheme both through runWorkload and through
 * runCell and compare every simulated field. Returns the number of
 * schemes whose metrics differ; @p attempted receives the cell count.
 */
unsigned checkFidelity(std::uint64_t seed, unsigned *attempted);

/** 64-bit FNV-1a over simulated fields. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    void add(const LatencySummary &s);
    void add(const RunMetrics &m);
    void add(const LayerCounters &c);
    void add(const RecoveryProbe &r);
    void add(const ExploreReport &r);

    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/**
 * Run @p n tasks on at most @p jobs threads (task i gets its worker
 * index). Tasks are started in index order.
 */
void runPool(std::size_t n, unsigned jobs,
             const std::function<void(std::size_t, unsigned)> &task);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
