/**
 * @file
 * Mixed-role interference workload (ROADMAP item 3).
 *
 * Unlike the Table III suite — where every core runs the same loop —
 * each core here is assigned one of four traffic roles modelled on
 * pmembench's interference harness:
 *
 *  - log_append:  a log-writer transactor appending patterned records
 *                 and bumping a durable head pointer (persistence
 *                 traffic: the LogWriter of the cross-traffic mix).
 *  - point_read:  a random point-reader issuing scattered single-word
 *                 loads (latency-sensitive foreground reads).
 *  - seq_scan:    a sequential scanner streaming whole items in order
 *                 (bandwidth-hungry reads, the SequentialReader).
 *  - gc_pressure: a flusher overwriting whole items at random — the
 *                 maximal write-amplification / GC-churn generator
 *                 (the PageFlusher).
 *
 * All structures are per-core private (as everywhere in this repo);
 * the roles contend on the *shared NVM channel*, which is the point:
 * the suite measures how each persistence scheme's tail latency
 * degrades as mixed traffic saturates the channel.
 *
 * Two global knobs shape the mix (WorkloadParams):
 *  - interferenceReadMix in [0, 1]: fraction of cores given reader
 *    roles (point_read / seq_scan alternating); the rest are writers
 *    (log_append / gc_pressure alternating).
 *  - interferenceSaturation in (0, 1]: open-loop pacing target. After
 *    each transaction the core idles for active * (1 - s) / s ticks,
 *    so its duty cycle is s; at s = 1 cores run flat out.
 *
 * Per-role intensity constants set the operations per transaction.
 * Each role records its per-transaction latency into the system StatSet
 * histogram "role_<name>_ticks" (resolved once at construction), which
 * System::metrics() surfaces as RunMetrics.roles.
 */

#ifndef HOOPNVM_WORKLOADS_INTERFERENCE_WL_HH
#define HOOPNVM_WORKLOADS_INTERFERENCE_WL_HH

#include <vector>

#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace hoopnvm
{

/** Traffic role of one core in the interference mix. */
enum class InterferenceRole
{
    LogAppend,
    PointRead,
    SeqScan,
    GcPressure,
};

/** Stable lower-case name ("log_append", ...) of @p role. */
const char *interferenceRoleName(InterferenceRole role);

/**
 * Deterministic role assignment: the first round(read_mix * n_cores)
 * cores are readers (point_read / seq_scan alternating by position),
 * the rest writers (log_append / gc_pressure alternating). Pure
 * function of its arguments so tests, benches and the workload itself
 * agree on the mapping.
 */
InterferenceRole interferenceRoleForCore(CoreId core, unsigned n_cores,
                                         double read_mix);

/** One core's slice of the mixed-role interference mix. */
class InterferenceWorkload : public Workload
{
  public:
    /** log_append: records appended per transaction. */
    static constexpr unsigned kLogAppendsPerTx = 4;

    /** point_read: random single-word loads per transaction. */
    static constexpr unsigned kPointReadsPerTx = 8;

    /** seq_scan: whole items streamed per transaction. */
    static constexpr unsigned kScanItemsPerTx = 16;

    /** gc_pressure: whole-item overwrites per transaction. */
    static constexpr unsigned kGcOverwritesPerTx = 2;

    InterferenceWorkload(TxContext ctx, const WorkloadParams &p);

    const char *name() const override { return "interference"; }
    void setup() override;
    void runTransaction(std::uint64_t i) override;
    bool verify() const override;

    InterferenceRole role() const { return role_; }

  private:
    Addr itemAddr(std::uint64_t idx) const;
    void runLogAppend();
    void runPointRead();
    void runSeqScan();
    void runGcPressure();

    /** Record tx latency and apply the saturation duty-cycle gap. */
    void finishTx(Tick t0);

    WorkloadParams p_;
    InterferenceRole role_;

    /** Role-aggregate per-tx latency series (shared across cores). */
    Histogram &latH_;

    Addr head_ = kInvalidAddr;  ///< head/counter word
    Addr items_ = kInvalidAddr; ///< item/slot array

    /** Committed log head (log_append) or commit counter (readers). */
    std::uint64_t shadowHead_ = 0;

    /** Committed item versions (gc_pressure only). */
    std::vector<std::uint64_t> shadowVer_;

    /** Scan cursor (seq_scan, committed). */
    std::uint64_t cursor_ = 0;

    /** Pattern mismatches observed by timed reads (must stay 0). */
    std::uint64_t readErrors_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_INTERFERENCE_WL_HH
