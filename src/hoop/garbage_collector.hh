/**
 * @file
 * HOOP's adaptive garbage collector (paper §III-E, Algorithm 1).
 *
 * GC selects full OOP blocks whose transactions have all committed,
 * coalesces every word update found in them (latest version wins) into
 * a hash map, migrates the coalesced lines to the home region, removes
 * the corresponding mapping-table entries, and recycles the blocks.
 *
 * Two refinements over the paper's Algorithm 1 pseudo-code are needed
 * for strict correctness, both noted in DESIGN.md:
 *  - GC collects a prefix of the live blocks in open order, stopping
 *    at the first block that holds an open transaction's first slice
 *    (each core has at most one open transaction, and every block
 *    before that one holds committed slices only). Recovery replays
 *    the survivors of a chain the prefix cut.
 *  - A mapping-table entry is only removed when it points into a
 *    collected block (an entry pointing at a newer slice in a live
 *    block must survive the migration of older versions).
 *
 * The paper scans committed transactions in reverse commit order and
 * keeps the first version seen; we scan forward and keep the highest
 * sequence number, which selects the same version.
 *
 * Migration reads a home line only when the coalesced words leave part
 * of it uncovered: a line whose eight words all sit in the collected
 * slices is written home without reading its old copy.
 */

#ifndef HOOPNVM_HOOP_GARBAGE_COLLECTOR_HH
#define HOOPNVM_HOOP_GARBAGE_COLLECTOR_HH

#include <cstdint>

#include "common/types.hh"
#include "stats/stat_set.hh"

namespace hoopnvm
{

class HoopController;

/** Background migrator from the OOP region to the home region. */
class GarbageCollector
{
  public:
    explicit GarbageCollector(HoopController &ctrl);

    /**
     * Run one GC pass at time @p now.
     * @return Completion tick of the pass (== now when nothing to do).
     */
    Tick run(Tick now);

    /**
     * Data reduction ratio (paper Table IV): the fraction of bytes
     * modified by transactions that coalescing kept from being written
     * back to the home region.
     */
    double dataReductionRatio() const;

    StatSet &stats() { return stats_; }

  private:
    HoopController &ctrl;
    StatSet stats_;

    // Hot-path counters resolved once; StatSet references stay valid
    // for the StatSet's lifetime.
    Counter &noopRunsC_;
    Counter &runsC_;
    Counter &slicesScannedC_;
    Counter &slicesCrcSkippedC_;
    Counter &homeLinesWrittenC_;
    /** Migrated lines whose old home copy GC read: those the coalesced
     *  words leave partly uncovered (every line in the ablation that
     *  turns coalescing off). */
    Counter &homeLinesReadC_;
    Counter &homeLinesSkippedFresherC_;
    Counter &mappingEntriesDroppedC_;
    Counter &blocksRecycledC_;

    /** GC pause durations, recorded into the controller's StatSet. */
    Histogram &pauseH_;

    /** Bytes of coalesced word data migrated to the home region. */
    std::uint64_t migratedWordBytes_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_GARBAGE_COLLECTOR_HH
