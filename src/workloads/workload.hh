/**
 * @file
 * Workload interface (the paper's Table III benchmark suite).
 *
 * A Workload instance is bound to one core and owns a private data
 * structure in that core's arena (the paper runs one structure or
 * database shard per thread). Host-side *shadow* state mirrors only
 * committed transactions, so verify() checks both functional
 * correctness during normal runs and atomic durability after a crash
 * plus recovery.
 */

#ifndef HOOPNVM_WORKLOADS_WORKLOAD_HH
#define HOOPNVM_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>

#include "txn/tx_context.hh"

namespace hoopnvm
{

/** One core's workload instance. */
class Workload
{
  public:
    explicit Workload(TxContext ctx_)
        : ctx(std::move(ctx_))
    {
    }

    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Build the initial data set (untimed pokes allowed). */
    virtual void setup() = 0;

    /**
     * Execute one transaction. @p i is this core's transaction count
     * (RunDriver passes it). No workload reads it; it stays because
     * perfbench's OopFillWorkload overrides this signature.
     */
    virtual void runTransaction(std::uint64_t i) = 0;

    /**
     * Compare the simulated structure against the committed shadow.
     * @return true when they agree.
     */
    virtual bool verify() const = 0;

    /**
     * Check structural invariants of the NVM-resident data structure
     * itself (ordering, occupancy, chain integrity, ...) independent of
     * the shadow. Default: no invariants beyond verify().
     * @param why receives a human-readable reason on failure.
     */
    virtual bool verifyStructure(std::string *why = nullptr) const
    {
        (void)why;
        return true;
    }

    /**
     * A commit whose shadow update is still pending: the simulated
     * txEnd() finished but the crash-exploration engine has not yet
     * decided whether the commit became durable. After a crash *at* the
     * commit record both outcomes are legal; the checker resolves the
     * ambiguity by trying verify() with and without the pending update.
     */
    bool hasPendingShadow() const { return bool(pendingShadow_); }

    /** Apply the staged shadow mutation of the last commitTx(). */
    void applyPendingShadow()
    {
        if (pendingShadow_) {
            pendingShadow_();
            pendingShadow_ = nullptr;
        }
    }

    /** Discard the staged shadow mutation (commit did not survive). */
    void dropPendingShadow() { pendingShadow_ = nullptr; }

    /**
     * Send this workload's accesses to @p sys, a System that adopted
     * the image of the one it was set up on (System::adoptImage), so
     * verify() and verifyStructure() judge that copy against this
     * workload's shadow. The crash explorer binds a workload to a
     * recovered fork this way and then binds it back.
     */
    void rebind(System &sys) { ctx.rebind(sys); }

  protected:
    /**
     * Commit the open transaction and stage @p shadow_update as the
     * matching shadow mutation. In normal runs the update applies
     * immediately after txEnd(); if txEnd() throws (a scheduled
     * SimCrash), the update stays pending for the checker to resolve.
     */
    void commitTx(std::function<void()> shadow_update)
    {
        pendingShadow_ = std::move(shadow_update);
        ctx.txEnd();
        applyPendingShadow();
    }

    TxContext ctx;

  private:
    std::function<void()> pendingShadow_;
};

/** Builds one workload instance per core. */
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(System &, CoreId)>;

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_WORKLOAD_HH
