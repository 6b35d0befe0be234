/**
 * @file
 * One fleet shard: an independent HOOP fault domain.
 *
 * A shard wraps a complete System — its own OOP region, mapping
 * table, GC, scrubber and NVM device — plus one workload instance per
 * core, exactly the machine the soak harness checks, but embedded in
 * a fleet where siblings keep serving while this shard crashes,
 * recovers, stalls or degrades. The shard owns everything that is
 * per-fault-domain state:
 *
 *  - availability: a crash makes the shard unavailable for the
 *    modelled recovery duration; a stall for the stall window. The
 *    front-end routes around unavailability with client retries.
 *  - admission control: a hysteretic queue-depth gate, its thresholds
 *    tightened as retired capacity grows (a degraded shard sheds
 *    earlier). The low/high split guarantees a drained shard always
 *    re-admits — the end-of-run oracle insists on it.
 *  - the committed-shadow oracle: after every recovery the shard's
 *    structures must equal the per-core committed shadows (with the
 *    commit-ambiguity window resolved both ways) and pass structural
 *    verification — an acked transaction is never lost.
 */

#ifndef HOOPNVM_FLEET_SHARD_HH
#define HOOPNVM_FLEET_SHARD_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "check/rig.hh"
#include "stats/histogram.hh"

namespace hoopnvm
{

/** Per-shard build/runtime knobs. */
struct ShardConfig
{
    Scheme scheme = Scheme::Hoop;
    std::string workload = "vector";
    unsigned numCores = 2;
    std::uint64_t seed = 42;
    unsigned recoverThreads = 2;

    /** Warmup transactions per core before traffic starts. */
    std::uint64_t warmupTx = 10;

    /**
     * Seeded-bug self-test: acknowledge commits before the commit
     * record is durably fenced (debugNoCommitFence + torn writes).
     * A chaos crash on such a shard must surface as a lost acked
     * transaction — the harness self-test asserts it is detected.
     */
    bool injectAckBeforeDurable = false;

    /** Queue depth (ticks of backlog) that closes admission. */
    Tick shedHighTicks = nsToTicks(200'000);

    /** Queue depth at or below which admission re-opens. */
    Tick shedLowTicks = nsToTicks(50'000);
};

/** How one serve attempt on a shard ended. */
enum class ServeStatus
{
    /** Transaction committed; the ack is client-visible. */
    Acked,

    /** Admission-time TxRejected (no state touched; retryable). */
    RejectedAdmission,

    /** Mid-transaction TxRejected; the shard crash+recovered. */
    RejectedMidTx,
};

/** Outcome of one FleetShard::serve(). */
struct ServeResult
{
    ServeStatus status = ServeStatus::Acked;

    /** Core time the attempt consumed (service component). */
    Tick serviceTicks = 0;

    /** Modelled recovery duration (RejectedMidTx only). */
    Tick recoveryTicks = 0;
};

/** Cumulative per-shard observability. */
struct ShardCounters
{
    std::uint64_t acked = 0;
    std::uint64_t rejectedAdmission = 0;
    std::uint64_t rejectedMidTx = 0;

    /** All recoveries: chaos crashes + mid-transaction unwinds. */
    std::uint64_t recoveries = 0;

    std::uint64_t chaosCrashes = 0;
    std::uint64_t stallWindows = 0;
    std::uint64_t faultRamps = 0;
};

/** One independent HOOP fault domain inside the fleet. */
class FleetShard
{
  public:
    FleetShard(unsigned id, const ShardConfig &cfg);

    FleetShard(const FleetShard &) = delete;
    FleetShard &operator=(const FleetShard &) = delete;

    /** Run the configured warmup transactions on every core. */
    void warmup();

    /**
     * Serve one transaction on @p core. TxRejected is resolved with
     * the shared client policy (admission skip vs crash+recover); a
     * recovery re-runs the committed-shadow oracle and reports a
     * violation through @p violation.
     */
    ServeResult serve(CoreId core, std::uint64_t seq,
                      std::string *violation);

    // ---- Chaos ----

    /**
     * Power-fail now and run online recovery; the shard is unavailable
     * until @p now + the modelled recovery duration. Re-runs the
     * oracle; @return false with @p violation set on a violation.
     */
    bool chaosCrash(Tick now, std::string *violation);

    /** Stop serving until @p now + @p duration (no state loss). */
    void chaosStall(Tick now, Tick duration);

    /** Land a seeded media-fault battery on then-free capacity. */
    void chaosFaultRamp(double prob, unsigned salt);

    // ---- Availability & admission ----

    bool availableAt(Tick now) const { return now >= unavailableUntil_; }
    Tick unavailableUntil() const { return unavailableUntil_; }

    /**
     * Mark the shard unavailable until @p from + @p duration without
     * counting a chaos event (mid-transaction unwind recoveries).
     */
    void beginUnavailability(Tick from, Tick duration)
    {
        unavailableUntil_ = std::max(unavailableUntil_,
                                     from + duration);
    }

    /**
     * Hysteretic admission decision for a request seeing @p queueDepth
     * ticks of backlog: close above the high threshold, re-open at or
     * below the low one. Thresholds shrink as retired capacity grows
     * (floored so a drained shard always re-admits).
     */
    bool admit(Tick queueDepth);

    bool admitting() const { return admitting_; }

    // ---- Oracle ----

    /** The shared post-recovery oracle (CheckRig::oracle).
     *  @return false with @p violation set on the first failure. */
    bool oracle(const std::string &when, std::string *violation)
    {
        return rig_.oracle(when, violation);
    }

    // ---- Observability ----

    unsigned id() const { return id_; }
    unsigned numCores() const { return cfg_.numCores; }
    const ShardCounters &counters() const { return counters_; }
    ShardCounters &counters() { return counters_; }

    /** Record one end-to-end request latency (queue + service). */
    void recordLatency(Tick t) { latency_.record(t); }
    const Histogram &latency() const { return latency_; }

    /** Forward client-side degradation gauges to the epoch sampler. */
    void noteClientActivity(const ClientActivity &a);

    double degradedFraction();
    System &system() { return rig_.sys(); }

  private:
    unsigned id_;
    ShardConfig cfg_;
    CheckRig rig_;

    Tick unavailableUntil_ = 0;
    bool admitting_ = true;
    ShardCounters counters_;
    Histogram latency_;
};

} // namespace hoopnvm

#endif // HOOPNVM_FLEET_SHARD_HH
