/**
 * @file
 * The one bench driver shared by the figure/table reproduction benches.
 *
 * Every bench binary regenerates some of the paper's evaluation
 * artifacts (Figs. 7-13, Table IV) by running the Table III workloads
 * through full System instances — one per (scheme, workload, config)
 * cell — and printing the same rows/series the paper reports. A main
 * builds one Bench (flags, banner, cell pool, BENCH JSON), adds its
 * cells, runs them, and prints its tables from the cells' metrics.
 * The default configuration follows Table II; the transaction counts
 * are scaled so each binary completes in seconds on a laptop while
 * keeping every cache and OOP-region mechanism exercised.
 */

#ifndef HOOPNVM_BENCH_BENCH_COMMON_HH
#define HOOPNVM_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats/table.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{
namespace bench
{

/** Paper Table II configuration, sized for bench runtime. */
inline SystemConfig
paperConfig()
{
    SystemConfig cfg;
    cfg.numCores = 8; // the paper runs 8 threads per workload
    cfg.homeBytes = miB(256);
    cfg.oopBytes = miB(32);
    cfg.auxBytes = miB(256) + miB(16);
    return cfg;
}

/** Default workload sizing for benches. */
inline WorkloadParams
paperParams(std::size_t value_bytes)
{
    WorkloadParams p;
    p.valueBytes = value_bytes;
    p.scale = 2048;
    return p;
}

/** Transactions per core for the standard sweeps. */
inline constexpr std::uint64_t kTxPerCore = 150;

/**
 * Transactions per core for this run: the bench's own @p dflt unless
 * the HOOP_BENCH_TX environment variable is set (the CI smoke test
 * sets it to a handful so every bench finishes in milliseconds). A
 * value that is not a positive decimal integer exits 2, as a bad flag
 * does.
 */
std::uint64_t benchTxPerCore(std::uint64_t dflt = kTxPerCore);

/** Reads a stat RunMetrics does not carry off a cell's System. */
using Probe = std::function<void(System &)>;

/**
 * Run one (scheme, workload) cell on a fresh System and return its
 * metrics. A run that fails verification aborts the process; one that
 * passes is handed to @p probe, when set.
 */
RunMetrics runCell(Scheme scheme, const std::string &workload,
                   const WorkloadParams &params, const SystemConfig &cfg,
                   std::uint64_t tx_per_core, const Probe &probe = {});

/**
 * Schedules independent cells across a thread pool. Cells are
 * registered up front and addressed by the index add() returns; run()
 * executes them all, each filling in the RunMetrics the runner keeps
 * for it, and the bench prints its tables afterwards — so stdout is
 * byte-identical for any job count (each cell owns a full System
 * seeded from its config; nothing is shared). A job count of 1 runs
 * the cells inline on the calling thread with no pool at all.
 */
class CellRunner
{
  public:
    /** @param jobs Worker threads; 0 means one per hardware thread. */
    explicit CellRunner(unsigned jobs = 0);

    /**
     * Register a task that fills in its cell's metrics; returns the
     * cell's index. Not thread-safe.
     */
    std::size_t add(std::string label,
                    std::function<void(RunMetrics &)> task);

    /** Register a runCell() cell; returns its index. */
    std::size_t add(std::string label, Scheme scheme,
                    const std::string &workload,
                    const WorkloadParams &params, const SystemConfig &cfg,
                    std::uint64_t tx_per_core, Probe probe = {});

    /** Execute every registered cell. */
    void run();

    unsigned jobs() const { return jobs_; }
    std::size_t cells() const { return slots.size(); }
    const std::string &label(std::size_t i) const
    {
        return slots[i].label;
    }
    double cellSeconds(std::size_t i) const { return slots[i].seconds; }
    const RunMetrics &metrics(std::size_t i) const
    {
        return slots[i].metrics;
    }

  private:
    struct Slot
    {
        std::string label;
        std::function<void(RunMetrics &)> task;
        double seconds = 0.0;
        RunMetrics metrics;
    };

    unsigned jobs_;
    std::vector<Slot> slots;
};

/** Custom scalars of one cell's JSON record, in emission order. */
using CellValues = std::vector<std::pair<std::string, double>>;

/**
 * The driver of one bench binary: its flags, banner, cell pool and
 * machine-readable report. write() emits `BENCH_<name>.json` into
 * $HOOP_BENCH_JSON_DIR (or the CWD) — the configuration, every cell's
 * host wall time and metrics, and a host-side summary (wall seconds
 * from construction to write(), cells/sec, simulated-ticks/sec) — and
 * prints the summary to stderr, never to stdout, which carries only
 * the paper tables.
 */
class Bench : public CellRunner
{
  public:
    /**
     * Take the bench flags from @p argv — `-jN` or `-j N` (N >= 1)
     * worker threads, `--profile` for the host-side wall-time profiler
     * (common/host_profiler.hh) — printing a usage line and exiting 2
     * on any other argument; then print the banner for @p title
     * (none when empty) with the Table II parameters of @p cfg.
     * @param tx_per_core Recorded as `config.tx_per_core`: what every
     *        cell runs per core, 0 when the cells size their own runs.
     */
    Bench(int argc, char **argv, std::string name,
          const std::string &title, const SystemConfig &cfg,
          std::uint64_t tx_per_core);

    std::uint64_t txPerCore() const { return txPerCore_; }

    /** Attach a custom scalar to cell @p i's JSON record. */
    void value(std::size_t i, std::string key, double v);

    /** Record a cell timed outside the pool; its record has no metrics. */
    void addTimed(std::string label, double seconds, CellValues values);

    /** Write BENCH_<name>.json and print the stderr summary. */
    void write() const;

  private:
    struct TimedCell
    {
        std::string label;
        double seconds;
        CellValues values;
    };

    std::string name_;
    SystemConfig cfg_;
    std::uint64_t txPerCore_;
    std::chrono::steady_clock::time_point start_;
    std::vector<CellValues> values_;
    std::vector<TimedCell> timed_;
};

/** The workload columns of Figs. 7-9 (suite x item size). */
struct WorkloadCol
{
    std::string label;
    std::string name;
    std::size_t valueBytes;
};

/**
 * The matrix Figs. 7, 8 and 9 read three ways: every kAllSchemes
 * system on every workload column, scheduled as the bench's first
 * cells, scheme-major.
 */
class FigureMatrix
{
  public:
    /**
     * Schedule every cell on @p bench. @p read_profile, when set,
     * probes the HOOP/ycsb-1KB cell (the §IV-C read-path profile).
     */
    FigureMatrix(Bench &bench, const SystemConfig &cfg,
                 Probe read_profile = {});

    const std::vector<WorkloadCol> &cols() const { return cols_; }

    /** Metrics of scheme @p s on the column labelled @p col. */
    const RunMetrics &at(Scheme s, const std::string &col) const;

    /** Metrics of scheme @p s on column @p w. */
    const RunMetrics &at(Scheme s, std::size_t w) const;

    /**
     * Print @p value of every cell divided by @p base's value on the
     * same column, one row per scheme plus a geomean column.
     * @return Each scheme's geomean.
     */
    std::map<Scheme, double>
    printNormalized(const std::string &title, Scheme base,
                    double (*value)(const RunMetrics &)) const;

  private:
    const Bench &bench_;
    std::vector<WorkloadCol> cols_;
};

} // namespace bench
} // namespace hoopnvm

#endif // HOOPNVM_BENCH_BENCH_COMMON_HH
