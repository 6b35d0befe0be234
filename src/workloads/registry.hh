/**
 * @file
 * Workload registry and the run driver.
 *
 * The registry exposes the paper's Table III suite by name. The run
 * driver owns one workload per core of a System and runs them in one
 * of two orders: the benches' min-clock order (always advancing the
 * core with the smallest clock, so execution approximates concurrent
 * threads) or the checkers' rounds. runWorkload() is the benches' run:
 * setup, the measured window, the final drain, metrics and verify.
 */

#ifndef HOOPNVM_WORKLOADS_REGISTRY_HH
#define HOOPNVM_WORKLOADS_REGISTRY_HH

#include <string>
#include <vector>

#include "common/errors.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace hoopnvm
{

/**
 * Sizing knobs for registry-built workloads. YCSB's mix and the
 * interference roles' intensities are constants beside YcsbWorkload
 * and InterferenceWorkload.
 */
struct WorkloadParams
{
    /** Item / value payload size (the paper's 64 B and 1 KB sets). */
    std::size_t valueBytes = 64;

    /** Structure size scale (items, key space, records). */
    std::uint64_t scale = 4096;

    // ---- Interference suite (workload "interference") ----

    /** Fraction of cores given reader roles (point_read/seq_scan). */
    double interferenceReadMix = 0.5;

    /** Target duty cycle in (0, 1]: 1 = run flat out, no pacing. */
    double interferenceSaturation = 1.0;
};

/** The paper's Table III workloads by name, in suite order (the first
 *  five are synthetic); the check tools' "--workload all". */
inline constexpr const char *kTableIIIWorkloads[] = {
    "vector", "hashmap", "queue", "rbtree", "btree", "ycsb", "tpcc"};

/** True when makeWorkload() knows @p name (Table III or
 *  "interference"). */
bool workloadKnown(const std::string &name);

/** Build the factory for workload @p name (workloadKnown() must hold). */
WorkloadFactory makeWorkload(const std::string &name,
                             const WorkloadParams &params);

/**
 * One workload per core of a System, built and set up, and the two
 * orders they run in. A core's transaction count is the index its
 * next runTransaction() gets.
 */
class RunDriver
{
  public:
    /**
     * Called after each runRounds() transaction with its core and the
     * TxRejected it threw, or null. @return false to stop the run at
     * once, skipping the rest of the round and its maintenance.
     */
    using TxHook = std::function<bool(unsigned core, const TxRejected *)>;

    /** Build and set up one workload of @p factory per core of @p sys. */
    RunDriver(System &sys, const WorkloadFactory &factory);

    Workload &wl(unsigned core) { return *wls_[core]; }
    unsigned numCores() const { return static_cast<unsigned>(wls_.size()); }

    /**
     * The benches' order: @p tx_per_core more transactions per core.
     * The unfinished core furthest behind in simulated time goes next,
     * ties to the lowest index, and maintenance follows each one.
     */
    void runMinClock(std::uint64_t tx_per_core);

    /**
     * The checkers' order: @p rounds rounds, each one transaction per
     * core in index order, then maintenance. Without @p hook a
     * TxRejected propagates; a SimCrash always does.
     */
    void runRounds(std::uint64_t rounds, const TxHook &hook = {});

    /** Every core's verify(), with debug reads batched: nothing may
     *  mutate simulated state meanwhile. */
    bool verify();

  private:
    System &sys_;
    std::vector<std::unique_ptr<Workload>> wls_;
    std::vector<std::uint64_t> done_;
};

/** Result of one measured run. */
struct RunOutcome
{
    RunMetrics metrics;
    bool verified = false;
};

/**
 * Run @p tx_per_core transactions of @p factory on every core of
 * @p sys, then finalize, verify and measure.
 */
RunOutcome runWorkload(System &sys, const WorkloadFactory &factory,
                       std::uint64_t tx_per_core);

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_REGISTRY_HH
