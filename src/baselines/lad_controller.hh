/**
 * @file
 * LAD: logless atomic durability after Gupta et al. [16].
 *
 * LAD exploits the fact that memory-controller queues sit inside the
 * ADR persistence domain: a transaction commits the moment its updated
 * cache lines are accepted by the controller, with no log writes at
 * all. The controller then drains the lines to their home addresses in
 * the background. On power failure the queue drains automatically, so
 * committed data always reaches NVM, while uncommitted updates are
 * discarded from the staging buffers.
 *
 * Its residual costs versus HOOP (paper §IV-B/D): data is persisted at
 * cache-line granularity (no word packing) and updates of the same line
 * across transactions are not coalesced before reaching NVM.
 */

#ifndef HOOPNVM_BASELINES_LAD_CONTROLLER_HH
#define HOOPNVM_BASELINES_LAD_CONTROLLER_HH

#include "baselines/tx_write_set.hh"
#include "controller/persistence_controller.hh"

namespace hoopnvm
{

/** Logless atomic durability via persistent controller queues. */
class LadController : public PersistenceController
{
  public:
    /** Commit handshake between cache and memory controller. */
    static constexpr Tick kCommitOverhead = nsToTicks(120);

    LadController(NvmDevice &nvm, const SystemConfig &cfg);

    Scheme scheme() const override { return Scheme::Lad; }

    TxId txBegin(CoreId core, Tick now) override;
    Tick txEnd(CoreId core, Tick now) override;
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;
    ControllerGauges sampleGauges() const override;
    void crash() override;
    Tick recover(unsigned threads) override;
    void debugReadLine(Addr line, std::uint8_t *buf) const override;
    void declareOrderingRules(OrderingTracker &t) override;

  private:
    /** Per-core staged words of the running transaction (volatile). */
    TxWriteSet writes_;

    /** Cost of accepting one line into the persistent queue. */
    static constexpr Tick kQueueInsertCost = 4 * kCycle;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &queueDrainsC_;
    Counter &txCommittedC_;
    Counter &evictionsAbsorbedC_;
    Counter &homeWritebacksC_;
    Counter &recoveriesC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_LAD_CONTROLLER_HH
