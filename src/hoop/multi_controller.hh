/**
 * @file
 * Multi-memory-controller HOOP with two-phase commit (paper §III-I).
 *
 * The paper sketches how HOOP extends to several memory controllers:
 * home addresses interleave across controllers, each with its own OOP
 * data buffers, mapping table and OOP region. Commit runs a two-phase
 * protocol — *prepare* flushes every participating controller's
 * outstanding slices, *commit* writes a commit record on each of them.
 * A crash between the per-controller record writes leaves the record on
 * some controllers but not others; recovery therefore reaches consensus
 * first: a transaction replays only if **every** controller holding its
 * slices also holds its commit record, otherwise it is discarded
 * everywhere (all-or-nothing across channels).
 *
 * This module drives unmodified HoopControllers (one per channel, each
 * with a private NvmDevice) through that protocol. It is exercised by
 * tests/multi_controller_test.cc, including crashes injected between
 * the two commit phases.
 */

#ifndef HOOPNVM_HOOP_MULTI_CONTROLLER_HH
#define HOOPNVM_HOOP_MULTI_CONTROLLER_HH

#include <memory>
#include <unordered_set>
#include <vector>

#include "hoop/hoop_controller.hh"

namespace hoopnvm
{

/** HOOP spanning multiple memory controllers via two-phase commit. */
class MultiHoopSystem
{
  public:
    /**
     * @param cfg         Per-controller configuration (regions are per
     *                    channel; each controller gets its own device).
     * @param controllers Number of memory controllers (channels).
     */
    MultiHoopSystem(const SystemConfig &cfg, unsigned controllers);

    unsigned controllers() const
    {
        return static_cast<unsigned>(mcs.size());
    }

    /** Controller owning home line @p line (line interleaving). */
    unsigned channelOf(Addr line) const;

    // ---- Transactional API (word granularity, controller level) ----

    void txBegin(CoreId core);

    /** Store one word; routed to its channel's controller. */
    void storeWord(CoreId core, Addr addr, std::uint64_t value);

    /** Read the current word value (committed or own-tx). */
    std::uint64_t readWord(Addr addr) const;

    /**
     * Two-phase commit: prepare (flush slices on every participant),
     * then commit (write each participant's commit record).
     * @return Tick at which the slowest controller acknowledged.
     */
    Tick txEnd(CoreId core);

    /**
     * Power failure on every controller: their volatile state is lost
     * and any pending scheduleCommitCrash() is cancelled.
     */
    void crash();

    /** Consensus recovery across all controllers (see file header). */
    void recoverAll(unsigned threads);

    /**
     * Split the next commit phase: after @p n more commit-record
     * writes, txEnd() stops writing records, as if the power failed
     * (tests then call crash()).
     */
    void scheduleCommitCrash(unsigned n) { commitCrashAfter = n; }

    HoopController &controller(unsigned i) { return *mcs[i].ctrl; }
    NvmDevice &device(unsigned i) { return *mcs[i].nvm; }

  private:
    struct Channel
    {
        std::unique_ptr<NvmDevice> nvm;
        std::unique_ptr<HoopController> ctrl;
    };

    /** Channels the running tx of @p core has touched. */
    std::unordered_set<unsigned> &participants(CoreId core)
    {
        return touched[core];
    }

    SystemConfig cfg;
    std::vector<Channel> mcs;
    std::vector<std::unordered_set<unsigned>> touched;
    std::vector<TxId> globalTx;
    std::vector<Tick> clocks;

    /** Commit-phase fault injection: -1 = disabled. */
    int commitCrashAfter = -1;

    /**
     * Next global (cross-controller) transaction id. Global ids live
     * in the upper half of the 32-bit slice TxId space so they cannot
     * collide with controller-local ids (which count up from 1).
     */
    TxId nextGlobal = TxId{1} << 31;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_MULTI_CONTROLLER_HH
