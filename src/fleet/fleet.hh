/**
 * @file
 * The sharded HOOP fleet harness: N independent shard fault domains
 * behind a hashing front-end, driven by an open-loop client under a
 * deterministic chaos schedule.
 *
 * One FleetSpec pins down an entire experiment — scheme, workload,
 * shard count, the arrival process, the client retry policy and the
 * chaos profile — and runFleet() executes it bit-for-bit
 * deterministically on simulated time. Requests hash by tenant to a
 * shard (tenant data is shard-local, so retries return to the same
 * shard); the client layer turns every adversity into a structured
 * ClientOutcome via bounded retries with exponential backoff + seeded
 * jitter and a per-request deadline. Shards shed load hysteretically
 * when their queues back up and must all be re-admitted by the end of
 * the run.
 *
 * Oracles, checked continuously:
 *  - after every recovery (chaos crash or mid-transaction unwind) the
 *    shard's structures must equal its committed shadows — no acked
 *    transaction is ever lost, no phantom data surfaces;
 *  - every request ends in exactly one ClientOutcome, never a fatal;
 *  - at end of run every shard is admitting and serves a probe
 *    transaction on every core, after a final oracle pass.
 *
 * A violating spec serializes to JSON and shrinks to a minimal
 * reproducer (`hoop_fleet --replay`), mirroring the soak harness.
 */

#ifndef HOOPNVM_FLEET_FLEET_HH
#define HOOPNVM_FLEET_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/shard.hh"

namespace hoopnvm
{

/** One deterministic fleet experiment. */
struct FleetSpec
{
    Scheme scheme = Scheme::Hoop;
    std::string workload = "vector";

    /** Chaos profile: none / crashes / stalls / faults / mixed. */
    std::string chaosProfile = "mixed";

    std::uint64_t seed = 42;
    unsigned shards = 4;
    unsigned coresPerShard = 2;

    /** Client requests dispatched through the front-end. */
    std::uint64_t requests = 1500;

    /** Warmup transactions per core per shard (before traffic). */
    std::uint64_t warmupTx = 10;

    unsigned recoverThreads = 2;

    // ---- Client retry policy ----

    /** Total tries per request, including the first. */
    unsigned maxAttempts = 6;

    /** First-retry backoff (exponential with seeded jitter on top). */
    double backoffBaseNs = 2'000;

    /** Per-request deadline from first arrival (0 disables). */
    double deadlineNs = 20e6;

    // ---- Open-loop arrival process ----

    double meanInterarrivalNs = 500;
    double thinkNs = 2'000;
    unsigned tenants = 16;
    double tenantTheta = 0.99;
    unsigned connections = 16;
    double churnProb = 0.02;

    // ---- Chaos scaling ----

    unsigned chaosEventsPerShard = 2;

    /** Base per-word probability of FaultRamp events. */
    double faultProb = 0.05;

    /**
     * Self-test: shard 0 acks commits before they are durable (and a
     * crash is forced onto it). The run must detect the lost acked
     * transaction — used to prove the oracles can fail.
     */
    bool injectAckBeforeDurable = false;

    std::string toJson() const;

    /**
     * Parse @p text (as produced by toJson()).
     * @return false with @p err set on malformed input.
     */
    static bool fromJson(const std::string &text, FleetSpec *out,
                         std::string *err);
};

/** Per-shard slice of a fleet run's outcome. */
struct FleetShardReport
{
    unsigned shard = 0;
    ShardCounters counters;

    // Client-side degradation totals attributed to this shard.
    std::uint64_t retryAttempts = 0;
    std::uint64_t backoffTicks = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t shedAdmissions = 0;

    /** Admission gate state at end of run (oracle: must be true). */
    bool admittingAtEnd = true;

    std::uint64_t retiredUnits = 0;
    double degradedFraction = 0.0;

    /** End-to-end (queue + service) request latency on this shard. */
    LatencySummary latency;
};

/** Outcome of one fleet run. */
struct FleetResult
{
    bool violated = false;

    /** Human-readable description of the first violation. */
    std::string detail;

    std::uint64_t requests = 0;

    // ClientOutcome totals; acked+rejected+timedOut+shed == requests
    // on any run that completes without an oracle violation.
    std::uint64_t acked = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t shed = 0;

    // Fleet-wide client-activity totals.
    std::uint64_t retryAttempts = 0;
    std::uint64_t backoffTicks = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t shedAdmissions = 0;

    // Fleet-wide chaos/recovery totals.
    std::uint64_t recoveries = 0;
    std::uint64_t chaosCrashes = 0;
    std::uint64_t stallWindows = 0;
    std::uint64_t faultRamps = 0;

    /** Fleet-wide latency (per-shard histograms merged). */
    LatencySummary latency;

    std::vector<FleetShardReport> shards;
};

/** Execute @p spec deterministically. */
FleetResult runFleet(const FleetSpec &spec,
                     const Progress &progress = {});

/**
 * Greedily shrink @p failing toward a minimal still-violating spec:
 * fewer requests, shards, chaos events and warmup.
 */
FleetSpec shrinkFleet(const FleetSpec &failing,
                      std::string *detail = nullptr,
                      const Progress &progress = {});

} // namespace hoopnvm

#endif // HOOPNVM_FLEET_FLEET_HH
