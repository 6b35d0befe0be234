/**
 * @file
 * The log discipline the four log-backed baselines share.
 *
 * Opt-Redo, Opt-Undo, LSM and OSP each keep a durable LogRegion beside
 * the staged TxWriteSet. Around that log they share the admission
 * check that stops new transactions once bad-slot retirement has
 * degraded the ring, the background scrubber, the occupancy gauges,
 * the log-retire-bitmap rule, the log-full stall and the reclaim step
 * it and maintenance() call. Opt-Redo, Opt-Undo and LSM also share the
 * commit record and the periodic reclaim trigger, and Opt-Redo and LSM
 * the redo-style replay. Each scheme keeps its own commit protocol,
 * read path, eviction policy, recovery and ordering rules.
 */

#ifndef HOOPNVM_BASELINES_LOG_CONTROLLER_HH
#define HOOPNVM_BASELINES_LOG_CONTROLLER_HH

#include <string>
#include <utility>
#include <vector>

#include "baselines/log_region.hh"
#include "baselines/tx_write_set.hh"
#include "common/errors.hh"
#include "controller/persistence_controller.hh"

namespace hoopnvm
{

/** Base of the baselines that persist through a LogRegion. */
class LogController : public PersistenceController
{
  public:
    /** Admission check, then open the region and its write set. */
    TxId txBegin(CoreId core, Tick now) override;

    /** Reclaim every gcPeriod, or sooner once the log is 3/4 full. */
    void maintenance(Tick now) override;

    Tick scrub(Tick now) override;
    ControllerGauges sampleGauges() const override;
    void crash() override;

    /** The home line overlaid with the open transactions' words. */
    void debugReadLine(Addr line, std::uint8_t *buf) const override;

    /** Declares log-retire-bitmap; schemes declare theirs first. */
    void declareOrderingRules(OrderingTracker &t) override;

    /** Forward the tracker to the log's retirement machinery. */
    void setOrderingTracker(OrderingTracker *t) override;

    /** Free log-ring slots: wear-out fault-injection targets. */
    std::vector<std::pair<Addr, Addr>>
    freeMediaRanges() const override
    {
        return log_.freeSlotRanges();
    }

    LogRegion &log() { return log_; }

  protected:
    LogController(const std::string &name, NvmDevice &nvm,
                  const SystemConfig &cfg, Addr log_base,
                  std::uint64_t log_bytes);

    /**
     * The scheme's one step that frees log space: truncation or GC.
     * @return Completion tick of its traffic (>= now).
     */
    virtual Tick reclaim(Tick now) = 0;

    /** True once the log is three-quarters full. */
    bool
    logPressured() const
    {
        return log_.size() * 4 >= log_.capacity() * 3;
    }

    /** True while any core has a failure-atomic region open. */
    bool anyTxOpen() const;

    /**
     * Truncate the whole log if no region is open: every live entry
     * then belongs to a committed transaction whose effects are
     * already durable where recovery would put them.
     * @return True when it truncated.
     */
    bool truncateIdleLog(Tick now);

    /** Count a rejection of the running transaction and throw it. */
    [[noreturn]] void reject(RejectCause cause, const char *detail);

    /**
     * Log full: the writer stalls (counted) for one reclaim step and
     * the transaction is rejected if that freed nothing. Only Opt-Redo
     * frees space here. Opt-Undo and LSM reclaim nothing while a region
     * is open, and the stalling transaction's own region is, so for
     * them a full log always ends in a rejection, even when every live
     * entry belongs to a committed transaction.
     * @return Completion tick of the reclaim.
     */
    Tick stallForLogSpace(Tick now);

    /**
     * Append @p tx's commit record, issued at @p issue, and tag it for
     * @p rule. A full log first stalls the writer at @p t.
     * @return The later of @p t and the record's completion.
     */
    Tick appendCommitRecord(const char *rule, TxId tx, std::uint64_t cid,
                            Tick issue, Tick t);

    /**
     * Redo-style recovery: apply the committed transactions' line
     * images of type @p type in commit order, clear the log, and model
     * a single-threaded replay at @p per_entry work per scanned entry.
     * @return Modelled recovery time.
     */
    Tick replayCommitted(LogEntryType type, Tick per_entry);

    LogRegion log_;
    TxWriteSet writes_;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &txCommittedC_;
    Counter &homeWritebacksC_;
    Counter &logBackpressureStallsC_;
    Counter &txRejectedC_;
    Counter &scrubCorrectedC_;
    Counter &scrubPassesC_;
    Histogram &scrubPauseH_;
    Counter &recoveriesC_;

  private:
    /** Tick of the last periodic reclaim. */
    Tick lastReclaim_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_LOG_CONTROLLER_HH
