/**
 * @file
 * Workload registry and the simulation run loop.
 *
 * The registry exposes the paper's Table III suite by name; the run
 * loop interleaves transactions across cores (always advancing the
 * core with the smallest clock, so execution approximates concurrent
 * threads), fires controller maintenance between transactions, and
 * collects the measurement snapshot.
 */

#ifndef HOOPNVM_WORKLOADS_REGISTRY_HH
#define HOOPNVM_WORKLOADS_REGISTRY_HH

#include <string>
#include <vector>

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
