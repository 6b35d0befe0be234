/**
 * @file
 * LSM: software log-structured NVM after LSNVMM [17].
 *
 * All writes append to a durable log; a DRAM-resident skip-list index
 * maps home line addresses to their newest log entry. Every load pays
 * an index walk (the O(log N) software translation the paper blames
 * for LSNVMM's long critical path), and LLC misses on logged lines pay
 * an extra log read. GC runs at the same frequency as HOOP's (as the
 * paper configures for fairness): it migrates the live images back to
 * the home region, drops their index entries and truncates the log.
 *
 * Appended entries carry the *cumulative* live image of their line
 * (words newer than the home region), so the newest entry per line plus
 * the home region always reconstructs the current data.
 */

#ifndef HOOPNVM_BASELINES_LSM_CONTROLLER_HH
#define HOOPNVM_BASELINES_LSM_CONTROLLER_HH

#include <unordered_map>

#include "baselines/log_controller.hh"
#include "baselines/skiplist.hh"

namespace hoopnvm
{

/** Software log-structured NVM with a skip-list address index. */
class LsmController : public LogController
{
  public:
    LsmController(NvmDevice &nvm, const SystemConfig &cfg);

    Scheme scheme() const override { return Scheme::Lsm; }

    Tick txEnd(CoreId core, Tick now) override;
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;
    Tick loadOverhead(CoreId core, Addr line, Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;
    ControllerGauges sampleGauges() const override;
    Tick drain(Tick now) override;
    void crash() override;
    Tick recover(unsigned threads) override;
    void debugReadLine(Addr line, std::uint8_t *buf) const override;
    void declareOrderingRules(OrderingTracker &t) override;

    SkipList &index() { return index_; }

  private:
    /** GC: migrate all committed live images home and truncate the
     *  log. */
    Tick reclaim(Tick now) override;

    /** Cost of one index walk at the current tree size. */
    Tick indexWalkCost() const;

    SkipList index_; ///< home line -> newest log entry (DRAM-cached).

    /** Words newer than the home region, cumulative per line. */
    std::unordered_map<Addr, LineImage> liveImage;

    std::uint64_t logicalEntryIdx = 0;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &indexWalksC_;
    Counter &logEntriesC_;
    Counter &commitRecordsC_;
    Counter &logReadsC_;
    Counter &evictionsAbsorbedC_;
    Counter &gcRunsC_;
    Counter &migratedLinesC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_LSM_CONTROLLER_HH
