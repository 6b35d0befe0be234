/**
 * @file
 * Crash recovery for HOOP (paper §III-F).
 *
 * Recovery works purely from durable NVM bytes: it scans the OOP
 * blocks named live by their headers, collects address slices (commit
 * records), overlays every committed slice's words onto one line-keyed
 * map in which the highest sequence number wins, and writes the
 * winning versions back to their home addresses.
 *
 * The *functional* replay is one host pass: the winner rule is
 * associative and commutative, so per-thread maps would pick the same
 * words. The thread count and the NVM bandwidth enter only the
 * *timing*: RecoveryManager::time, a pure function of the scan's
 * result that follows the paper's machine model. The scan and
 * write-back phases are limited by NVM channel bandwidth, while the
 * per-slice parsing work divides across the recovery threads (Fig.
 * 11's two axes).
 *
 * Fault tolerance: nothing read from NVM is trusted without its CRC.
 * A torn or corrupt slice ends its block's live area; a corrupt
 * commit record never enters the committed set (recovery never
 * falsely commits); a committed transaction whose chain may have lost
 * slices to corruption is dropped whole (atomicity over durability),
 * while a chain merely trimmed by GC — its missing slices already
 * migrated home — replays its survivors. The CRC verification work is
 * charged in the recovery timing model and every rejection is counted
 * in RecoveryResult.
 */

#ifndef HOOPNVM_HOOP_RECOVERY_HH
#define HOOPNVM_HOOP_RECOVERY_HH

#include <cstdint>
#include <unordered_set>

#include "common/types.hh"
#include "nvm/nvm_timing.hh"
#include "stats/stat_set.hh"

namespace hoopnvm
{

class HoopController;

/** Outcome of one recovery run. */
struct RecoveryResult
{
    /** Modelled wall-clock recovery time: RecoveryManager::time()
     *  of this result at the run's thread count and NVM timing. */
    Tick time = 0;

    std::uint64_t committedTxReplayed = 0;
    std::uint64_t slicesScanned = 0;

    /** Channel bytes the timing model charges: two scan passes over
     *  every scanned slice plus a read and a write of every replayed
     *  home line. Not the bytes of one scan. */
    std::uint64_t bytesScanned = 0;

    std::uint64_t homeLinesWritten = 0;

    /** Distinct home words the replay wrote (one merge step each in
     *  the timing model). */
    std::uint64_t distinctWords = 0;

    /** Highest slice sequence number observed (counter restart point). */
    std::uint64_t maxSeq = 0;

    /** Highest transaction id observed. */
    TxId maxTxId = 0;

    // ---- Integrity (fault-tolerant recovery) ----

    /** Slices dropped because their CRC failed (torn or corrupt). */
    std::uint64_t slicesRejected = 0;

    /** CRC-failing slices whose type field still read AddrRec: torn
     *  commit records. Such a record never enters the committed set,
     *  so its transaction cannot replay. */
    std::uint64_t tornCommitsDetected = 0;

    /** CRC failures attributable to scheduled media faults (the slice
     *  sits in a scheduled fault range) rather than torn writes. */
    std::uint64_t bitFlipsDetected = 0;

    /** Block headers rejected by their CRC (block skipped whole). */
    std::uint64_t headersRejected = 0;

    /** Blocks skipped because their openSeq sits below the durable GC
     *  watermark: their words are migrated home, so a live-looking
     *  header is a recycle write that tore back to its previous,
     *  CRC-consistent value (a resurrected block). */
    std::uint64_t blocksSkippedByWatermark = 0;

    /** Committed transactions vetoed because part of their slice chain
     *  may have been lost to observed corruption — replaying the
     *  remainder could break atomicity, so the whole transaction is
     *  dropped. */
    std::uint64_t incompleteTxVetoed = 0;

    /** Committed transactions replayed from a partial chain whose
     *  missing slices no observed corruption could explain: GC
     *  migrated them home when it recycled their blocks, so the
     *  surviving slices complete the transaction on top of that
     *  baseline. */
    std::uint64_t gcTrimmedTxReplayed = 0;

    /** Total CPU ticks charged for CRC verification (before dividing
     *  across recovery threads, so independent of the thread count);
     *  part of `time`. */
    Tick crcVerifyCost = 0;

    // ---- Runtime fault tolerance (zero unless cfg.ft.enabled) ----

    /** Blocks skipped whole because the durable retirement bitmap marks
     *  them bad: their cells are untrustworthy and, by the retirement
     *  contract, held no live data when they were retired. */
    std::uint64_t blocksSkippedRetired = 0;

    /** Uncorrectable slice slots stepped over without ending the
     *  block's live area. Program-verify never lets a slice land on
     *  uncorrectable cells, so such a slot hides no data — cutting the
     *  scan there (as a CRC failure would) would instead lose the good
     *  slices written around it. */
    std::uint64_t slicesSkippedBad = 0;

    /** Field-wise equality. */
    bool operator==(const RecoveryResult &) const = default;
};

/** Parallel replay of committed transactions from the OOP region. */
class RecoveryManager
{
  public:
    explicit RecoveryManager(HoopController &ctrl);

    /**
     * Replay the committed state into the home region and time the
     * replay as @p threads workers on the controller's NVM. The OOP
     * region, mapping table and eviction buffer stay as they are:
     * HoopController::recover() clears them afterwards.
     * @param allow When non-null, only transactions in this set replay
     *              (multi-controller consensus, §III-I).
     */
    RecoveryResult run(unsigned threads,
                       const std::unordered_set<TxId> *allow = nullptr);

    /**
     * Modelled recovery time of the scan and replay @p r describes, run
     * by @p threads workers over an NVM with @p timing: channel time
     * for r.bytesScanned against per-slice CPU work divided across the
     * threads, whichever is longer, plus one read and one write
     * latency. Pure: a sweep over threads or bandwidth evaluates it on
     * one result.
     */
    static Tick time(const RecoveryResult &r, unsigned threads,
                     const NvmTiming &timing);

    /** Per-slice CPU processing cost used by the timing model. */
    static constexpr Tick kPerSliceCpuCost = nsToTicks(25);

    /**
     * CPU cost of one 128-byte CRC-32C verification, charged per slice
     * scan in the timing model. Hardware CRC32 instructions sustain
     * roughly one cache line per handful of cycles; 4 ns at 2.5 GHz is
     * a deliberately conservative software-assist figure.
     */
    static constexpr Tick kCrcVerifyCpuCost = nsToTicks(4);

    StatSet &stats() { return stats_; }

  private:
    HoopController &ctrl;
    StatSet stats_;
    // Stats resolved once at construction: run() must never do
    // string-keyed lookups (hoop_lint stats-lookup invariant).
    Counter &runsC_;
    Counter &txReplayedC_;
    Counter &linesWrittenC_;
    Counter &slicesRejectedC_;
    Counter &tornCommitsC_;
    Counter &bitFlipsC_;
    Counter &headersRejectedC_;
    Counter &blocksSkippedWatermarkC_;
    Counter &incompleteTxVetoedC_;
    Counter &gcTrimmedTxReplayedC_;
    Counter &blocksSkippedRetiredC_;
    Counter &slicesSkippedBadC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_RECOVERY_HH
