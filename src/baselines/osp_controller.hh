/**
 * @file
 * OSP: optimized shadow paging after SSP [38], [39].
 *
 * Every home-region cache line is backed by two physical copies: the
 * original line and a shadow line in the auxiliary region. A one-byte
 * per-line selector table (persisted in NVM) names the current copy.
 * Commit eagerly writes each modified line to the *inactive* copy,
 * appends a durable flip record listing the lines, performs the flips,
 * and pays a TLB shootdown (the address seen by the processor changes,
 * which the paper identifies as OSP's main cost). A crash before the
 * record leaves the old copies live; a crash after it is completed by
 * recovery re-applying the flips.
 */

#ifndef HOOPNVM_BASELINES_OSP_CONTROLLER_HH
#define HOOPNVM_BASELINES_OSP_CONTROLLER_HH

#include <unordered_set>
#include <vector>

#include "baselines/log_controller.hh"

namespace hoopnvm
{

/** Cache-line-granularity shadow paging. */
class OspController : public LogController
{
  public:
    OspController(NvmDevice &nvm, const SystemConfig &cfg);

    Scheme scheme() const override { return Scheme::Osp; }

    Tick txEnd(CoreId core, Tick now) override;
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;

    /** Truncate the flip log as soon as no region is open. */
    void maintenance(Tick now) override;

    void crash() override;
    Tick recover(unsigned threads) override;
    void debugReadLine(Addr line, std::uint8_t *buf) const override;
    void declareOrderingRules(OrderingTracker &t) override;

    /** NVM address of the line's shadow copy. */
    Addr shadowOf(Addr line) const;

    /** True if the shadow copy of @p line is the current one. */
    bool shadowIsCurrent(Addr line) const;

  private:
    /** Drop the flip records, all dead once no region is open. */
    Tick reclaim(Tick now) override;

    /** NVM address of @p line's entry in the selector table. */
    Addr selectorAddr(Addr line) const;

    /** Address of the currently live copy of @p line. */
    Addr currentCopy(Addr line) const;

    /** Persist selector bytes for @p lines and update the host view. */
    Tick applyFlips(Tick now, const std::vector<Addr> &lines);

    /** Host view of the NVM selector table (shadow-current lines). */
    std::unordered_set<Addr> shadowCurrent;

    /** Commits since the last page consolidation pass. */
    std::uint64_t commitsSinceConsolidation = 0;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &selectorWritesC_;
    Counter &shadowWritesC_;
    Counter &flipRecordsC_;
    Counter &tlbShootdownsC_;
    Counter &consolidationCopiesC_;
    Counter &inactiveWritebacksC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_OSP_CONTROLLER_HH
