/**
 * @file
 * Deterministic chaos schedules for the fleet harness.
 *
 * A chaos schedule is the fleet analogue of a crash schedule: a fixed,
 * seeded list of per-shard adversities applied mid-traffic while the
 * sibling shards keep serving. Three event kinds cover the fault
 * domains the harness cares about:
 *
 *  - Crash: the shard power-fails and runs online recovery; it is
 *    unavailable for the modelled recovery duration and the oracle
 *    checks committed-shadow equality the moment it comes back.
 *  - Stall: the shard stops answering for a fixed window (a GC storm,
 *    an OS hiccup) without losing state — clients see unavailability
 *    and must ride it out with retries/backoff.
 *  - FaultRamp: a fresh battery of seeded media faults lands on the
 *    shard's free capacity (CheckRig::installRuntimeFaults), pushing
 *    it toward capacity degradation and admission rejects.
 *
 * Named profiles expand to concrete event lists purely from (profile,
 * shards, horizon, seed), so a fleet run is replayable from its spec
 * alone.
 */

#ifndef HOOPNVM_FLEET_CHAOS_HH
#define HOOPNVM_FLEET_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hoopnvm
{

/** What a chaos event does to its shard. */
enum class ChaosKind
{
    /** Power failure + online recovery (siblings keep serving). */
    Crash,

    /** Unavailability window with no state loss. */
    Stall,

    /** Seeded media-fault battery over then-free capacity. */
    FaultRamp,
};

/** Stable lowercase token for @p k (fleet JSON, logs). */
const char *chaosKindName(ChaosKind k);

/** One scheduled adversity. */
struct ChaosEvent
{
    /** Fleet-clock tick the event fires at. */
    Tick at = 0;

    /** Target shard index. */
    unsigned shard = 0;

    ChaosKind kind = ChaosKind::Crash;

    /** Stall window length (Stall only). */
    Tick durationTicks = 0;

    /** Per-word fault probability (FaultRamp only). */
    double faultProb = 0.0;

    /** Polarity/stripe salt forwarded to
     *  CheckRig::installRuntimeFaults. */
    unsigned salt = 0;
};

/** Tuning knobs for profile expansion. */
struct ChaosTuning
{
    /** Events per shard (profiles scale off this). */
    unsigned eventsPerShard = 2;

    /** Base per-word probability for FaultRamp events. */
    double faultProb = 0.05;
};

/**
 * True when @p profile names a known chaos profile: "none" (no
 * events), "crashes", "stalls", "faults" (one kind each), or "mixed"
 * (round-robin over all three kinds).
 */
bool chaosProfileKnown(const std::string &profile);

/**
 * Expand @p profile into a concrete event list for @p shards shards
 * over [0, @p horizon): event times are seeded-uniform within the
 * middle of the horizon (so warmup and the final drain stay quiet),
 * and the result is sorted by (at, shard). Deterministic in all
 * arguments.
 */
std::vector<ChaosEvent> expandChaosProfile(const std::string &profile,
                                           unsigned shards,
                                           Tick horizon,
                                           std::uint64_t seed,
                                           const ChaosTuning &tuning);

} // namespace hoopnvm

#endif // HOOPNVM_FLEET_CHAOS_HH
