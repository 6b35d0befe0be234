/**
 * @file
 * Opt-Redo: hardware-assisted redo logging after WrAP [13].
 *
 * Every transactionally-modified cache line is streamed into a durable
 * redo log (128 B per line: a data line plus a metadata line, as the
 * paper notes WrAP "persists both the data and metadata for a single
 * update using two cache lines"). Commit waits for the outstanding log
 * writes plus a commit record. Data reaches its home address only via
 * checkpointing, the scheme's unavoidable double write: commit issues
 * the checkpoint write of every logged line without waiting for it,
 * and a background pass truncates the log once those writes settle.
 *
 * Table I classifies WrAP's read latency as High because reads of
 * logged lines that are not yet checkpointed must consult the log.
 * This model has no such read-side log lookup: commit writes every
 * line home at once, so fillLine() reads the home region and charges
 * no log read.
 */

#ifndef HOOPNVM_BASELINES_REDO_CONTROLLER_HH
#define HOOPNVM_BASELINES_REDO_CONTROLLER_HH

#include "baselines/log_controller.hh"

namespace hoopnvm
{

/** Hardware redo logging with asynchronous checkpointing. */
class RedoController : public LogController
{
  public:
    RedoController(NvmDevice &nvm, const SystemConfig &cfg);

    Scheme scheme() const override { return Scheme::OptRedo; }

    Tick txEnd(CoreId core, Tick now) override;
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;
    Tick drain(Tick now) override;
    Tick recover(unsigned threads) override;
    void declareOrderingRules(OrderingTracker &t) override;

  private:
    /** Truncate the checkpointed (retired) log entries. */
    Tick reclaim(Tick now) override;

    /** Log entries that the next truncation may drop. */
    std::uint64_t truncatableEntries = 0;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &logEntriesC_;
    Counter &commitRecordsC_;
    Counter &checkpointWritesC_;
    Counter &evictionsAbsorbedC_;
    Counter &truncationsC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_REDO_CONTROLLER_HH
