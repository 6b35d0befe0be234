/**
 * @file
 * Opt-Undo: hardware-assisted undo logging after ATOM [24].
 *
 * Before a line's first in-transaction modification, the controller
 * captures its old image from the home region and appends an undo
 * entry; the log-before-data ordering is enforced inside the memory
 * controller, keeping it off the store's critical path. Updates are
 * applied *in place*: commit must make every modified line durable at
 * its home address (the strict persist ordering that gives undo logging
 * the longest critical path in Fig. 4a) before the commit record
 * invalidates the undo entries. Reads always hit the home region, so
 * read latency is low (Table I).
 */

#ifndef HOOPNVM_BASELINES_UNDO_CONTROLLER_HH
#define HOOPNVM_BASELINES_UNDO_CONTROLLER_HH

#include <vector>

#include "baselines/log_controller.hh"

namespace hoopnvm
{

/** Hardware undo logging with in-place updates. */
class UndoController : public LogController
{
  public:
    UndoController(NvmDevice &nvm, const SystemConfig &cfg);

    Scheme scheme() const override { return Scheme::OptUndo; }

    TxId txBegin(CoreId core, Tick now) override;
    Tick txEnd(CoreId core, Tick now) override;
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;
    Tick recover(unsigned threads) override;
    void declareOrderingRules(OrderingTracker &t) override;

  private:
    /** Truncate the whole log once no region is open. */
    Tick reclaim(Tick now) override;

    /** Completion of each core's newest posted log write. */
    std::vector<Tick> outstanding;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &logEntriesC_;
    Counter &commitFlushesC_;
    Counter &commitRecordsC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_UNDO_CONTROLLER_HH
