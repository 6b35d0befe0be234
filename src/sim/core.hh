/**
 * @file
 * One simulated core: a logical clock plus transaction-state bit.
 *
 * The engine executes workload transactions to completion one at a
 * time, always choosing the core with the smallest clock next, so the
 * per-core clocks stay within one transaction of each other — an
 * operation-granularity approximation of concurrent execution that
 * preserves shared-resource contention at the NVM channel.
 */

#ifndef HOOPNVM_SIM_CORE_HH
#define HOOPNVM_SIM_CORE_HH

#include "common/types.hh"

namespace hoopnvm
{

/** Per-core execution state. */
class Core
{
  public:
    explicit Core(CoreId id);

    CoreId id() const { return id_; }

    Tick clock() const { return clock_; }

    /** Move the clock forward to @p t (never backwards). */
    void advanceTo(Tick t);

    /** Add @p d to the clock. */
    void advanceBy(Tick d) { clock_ += d; }

    bool inTx() const { return inTx_; }
    void setInTx(bool v) { inTx_ = v; }

    /** Mark a transaction begun at @p t (records the start tick). */
    void
    beginTx(Tick t)
    {
        inTx_ = true;
        txStart_ = t;
    }

    /** Start tick of the transaction in flight (valid while inTx()). */
    Tick txStart() const { return txStart_; }

    /** Reset after a crash. */
    void reset();

  private:
    CoreId id_;
    Tick clock_ = 0;
    Tick txStart_ = 0;
    bool inTx_ = false;
};

} // namespace hoopnvm

#endif // HOOPNVM_SIM_CORE_HH
