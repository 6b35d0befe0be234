/**
 * @file
 * The small-check machine every checker runs on — the crash explorer,
 * the soak engine and the ordering harness — and the post-recovery
 * oracle the first two judge it by.
 *
 * A rig is one System built from the caller's already-tweaked
 * SystemConfig (usually smallCheckConfig() plus the caller's fault and
 * debug knobs), its fault model seeded from the config seed, and a
 * RunDriver with one workload instance per core at the checkers' fixed
 * size (64 B values, scale 128), set up and ready to run. The caller
 * runs rounds through the driver and handles crashes its own way;
 * resolveReject() is the one way to serve on after a TxRejected.
 */

#ifndef HOOPNVM_CHECK_RIG_HH
#define HOOPNVM_CHECK_RIG_HH

#include <functional>
#include <string>

#include "common/errors.hh"
#include "sim/system.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{

/** Progress sink: invoked with a label as each unit of work starts. */
using Progress = std::function<void(const std::string &)>;

/** One System plus its per-core workloads, built for checking. */
class CheckRig
{
  public:
    /**
     * Build the machine for @p scheme running @p workload (a name
     * workloadKnown() accepts). @p tornWrites arms torn-write
     * injection. @p label prefixes every violation detail the oracle
     * writes ("hoop/vector").
     */
    CheckRig(const SystemConfig &cfg, Scheme scheme,
             const std::string &workload, bool tornWrites,
             std::string label);

    CheckRig(const CheckRig &) = delete;
    CheckRig &operator=(const CheckRig &) = delete;

    System &sys() { return sys_; }
    RunDriver &driver() { return driver_; }

    /**
     * Install the checkers' shared runtime-fault battery: permanent
     * stuck-at damage striped over capacity the scheme reports as free
     * right now (program-verify steers new data around it, exercising
     * retirement instead of losing data) plus transient read disturbs
     * over the home region (cleared by the bounded retry path).
     * Stripes alternate uncorrectable (multi-bit, retire-forcing) and
     * ECC-correctable (single-bit) damage, uncorrectable first — free
     * extents coalesce and are consumed front-first, so leading with
     * uncorrectable stripes keeps retirement reachable inside short
     * check windows. @p salt rotates stuck-at polarity across
     * installs. Every fault draw is seeded: the battery is
     * deterministic.
     */
    void installRuntimeFaults(double prob, unsigned salt);

    /** Forget every core's staged shadow update (after a recovery
     *  whose outcome is not judged). */
    void dropPendingShadows();

    /**
     * Resolve @p rj, thrown by core @p core's transaction, the way a
     * client stack does. An admission reject (CapacityDegraded: txBegin
     * refused before any transactional state existed) drops only that
     * core's staged shadow. A mid-transaction unwind (OopExhausted,
     * LogExhausted) left partial effects with no commit record, so the
     * rig crashes, recovers with @p recoverThreads threads and drops
     * every core's staged shadow; recovery discards the partial
     * transaction like any other uncommitted one, and the rig serves
     * again from the survivor state.
     * @return true when the rig crashed and recovered (the caller
     * should then run oracle()).
     */
    bool resolveReject(const TxRejected &rj, unsigned core,
                       unsigned recoverThreads);

    /**
     * Post-recovery oracle, core by core: committed-shadow equality
     * (strict first, then with the crashed transaction's pending
     * shadow update adopted — a commit in flight at the crash is legal
     * both durable and dropped), then the workload's structural
     * invariants. @return false with @p detail set to
     * "<label> core <c>: ..." naming @p when on the first failure.
     */
    bool oracle(const std::string &when, std::string *detail);

    /** What judge() concluded. */
    enum class Verdict
    {
        Pass,
        Fail,
        Pending,
    };

    /**
     * The oracle, read-only, on @p image: a System that adopted this
     * rig's image (System::adoptImage), then crashed and recovered.
     * Judges cores *@p core onward against this rig's shadows as
     * oracle() does, but applies and drops no pending shadow update.
     * @return Fail with @p detail set as oracle() sets it, or Pending
     * with *@p core set when that core's strict check failed while
     * its commit's shadow update is pending: judge again from that
     * core once the update has been applied.
     */
    Verdict judge(System &image, unsigned *core, const std::string &when,
                  std::string *detail);

  private:
    /**
     * The rest of core @p c's check once its shadow comparison gave
     * @p same: the structural invariants, and the detail on failure.
     */
    bool finishCore(unsigned c, bool same, const std::string &when,
                    std::string *detail);

    std::string label_;
    System sys_;
    RunDriver driver_;
};

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_RIG_HH
