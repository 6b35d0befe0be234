/**
 * @file
 * The log-structured OOP region (paper §III-D, Fig. 5a).
 *
 * The region is divided into fixed-size OOP blocks (2 MB by default).
 * Slot 0 of every block holds the block header (index, state, open
 * sequence number, next-block link); the remaining slots hold 128-byte
 * memory slices. Blocks are allocated round-robin so all of them age
 * uniformly (wear leveling), and a block index table records which
 * blocks are live — recovery only scans blocks named by that table.
 *
 * The region keeps a host-side mirror of per-block bookkeeping (state,
 * write pointer, open sequence) purely as an acceleration: everything
 * needed for crash recovery is re-derivable from NVM bytes, which the
 * recovery tests exercise.
 */

#ifndef HOOPNVM_HOOP_OOP_REGION_HH
#define HOOPNVM_HOOP_OOP_REGION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "hoop/memory_slice.hh"
#include "nvm/nvm_device.hh"
#include "nvm/retirement_map.hh"
#include "sim/system_config.hh"
#include "stats/stat_set.hh"

namespace hoopnvm
{

class OrderingTracker;

/** State of an OOP block (paper's BLK_* states + runtime retirement). */
enum class BlockState : std::uint8_t
{
    Unused = 0,
    InUse = 1,
    Full = 2,
    Gc = 3,

    /**
     * Retired: the block's cells exhausted the media-tolerance budget
     * (program-verify failures / uncorrectable reads past the
     * configured fraction). Never allocated again; recovery skips it
     * via the persisted retirement bitmap.
     */
    Bad = 4,
};

/** Host-side mirror of one OOP block's bookkeeping. */
struct OopBlockInfo
{
    BlockState state = BlockState::Unused;

    /** Next free slice slot (1-based; slot 0 is the header). */
    std::uint32_t writePtr = 1;

    /** Sequence number when the block was last opened. */
    std::uint64_t openSeq = 0;

    /** Slice slots that failed program-verify in this life of the block. */
    std::uint32_t badSlots = 0;

    /**
     * Degraded past the retirement threshold: GC migrates survivors
     * out and retires the block instead of recycling it.
     */
    bool retirePending = false;
};

/** Decoded view of an on-NVM block header (used by recovery). */
struct BlockHeaderView
{
    bool valid = false;
    BlockState state = BlockState::Unused;
    std::uint64_t openSeq = 0;

    /** Magic matched but the header CRC did not (torn/corrupt). */
    bool crcFailed = false;
};

/** Allocator and accessor for the log-structured OOP region. */
class OopRegion
{
  public:
    /** Block number that names no block. */
    static constexpr std::uint32_t kNoBlock = 0xffffffffu;

    OopRegion(NvmDevice &nvm, const SystemConfig &cfg);

    /** Number of blocks in the region. */
    std::uint32_t numBlocks() const { return numBlocks_; }

    /** Slice slots per block (excluding the header slot). */
    std::uint32_t slicesPerBlock() const { return slicesPerBlock_; }

    /** Blocks currently in state Unused, counted as states change. */
    std::uint32_t freeBlocks() const { return freeBlocks_; }

    /**
     * Allocate the next slice slot, opening a fresh block round-robin
     * when the current one fills (the filled block becomes BLK_FULL).
     * @param[out] idx      Global slice index of the allocated slot.
     * @param[in,out] now   Advanced past any header-write traffic.
     * @return false if no block is available (caller must GC).
     */
    bool allocSlice(std::uint32_t &idx, Tick now);

    /** NVM byte address of slice @p idx. */
    Addr sliceAddr(std::uint32_t idx) const;

    /** Block containing slice @p idx. */
    std::uint32_t
    blockOfSlice(std::uint32_t idx) const
    {
        return idx / (slicesPerBlock_ + 1);
    }

    /** Encode and write @p slice to slot @p idx; returns completion. */
    Tick writeSlice(Tick now, std::uint32_t idx, const MemorySlice &s);

    /** Timed read+decode of slot @p idx. */
    MemorySlice readSlice(Tick now, std::uint32_t idx,
                          Tick *completion = nullptr);

    /** Untimed read+decode (verification and recovery replay). */
    MemorySlice peekSlice(std::uint32_t idx) const;

    /** Untimed decode of block @p b's on-NVM header (recovery). */
    BlockHeaderView peekHeader(std::uint32_t b) const;

    /** Close the currently open block, marking it Full (drain/GC). */
    void closeCurrentBlock(Tick now);

    /**
     * Block @p b's bookkeeping. Callers may update everything but the
     * state, which only the region writes (through setState, which
     * keeps the free count).
     */
    OopBlockInfo &block(std::uint32_t b) { return blocks[b]; }
    const OopBlockInfo &block(std::uint32_t b) const { return blocks[b]; }

    /** Transition @p b to @p state, persisting the header (timed). */
    void setBlockState(std::uint32_t b, BlockState state, Tick now);

    /** Reset the whole region to Unused (end of recovery). */
    void reset();

    /**
     * Durable GC watermark: every block whose openSeq is below it had
     * its committed words migrated home and fenced before the
     * watermark was written, so recovery must treat such a block as
     * recycled even if its header still reads live (a torn recycle
     * header can revert wholesale to the previous, self-consistent
     * header — the CRC cannot tell a resurrected block from a live
     * one, but the watermark can).
     */
    std::uint64_t gcWatermark() const;

    /**
     * Persist the watermark (timed). A single 8-byte word: torn-write
     * injection reverts whole words, so a torn watermark is the
     * previous watermark — monotonic and always safe.
     */
    Tick writeGcWatermark(std::uint64_t seq, Tick now);

    /** Restore the global sequence counter after recovery. */
    void setNextSeq(std::uint64_t seq) { nextSeq_ = seq; }

    /** The sequence number the next allocSeq() returns. */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /** Allocate the next global slice sequence number. */
    std::uint64_t allocSeq() { return nextSeq_++; }

    /** Base NVM address of block @p b. */
    Addr blockBase(std::uint32_t b) const;

    // ---- Runtime fault tolerance (inert unless cfg.ft.enabled) ----

    /** Attach the ordering analyzer for retirement-rule tagging. */
    void setOrdering(OrderingTracker *t) { ordering_ = t; }

    /** True when the retirement machinery is active. */
    bool faultToleranceEnabled() const { return retireMap_.attached(); }

    /** Program-verify: slice slot @p idx sits on uncorrectable cells. */
    bool slotUncorrectable(std::uint32_t idx) const;

    /** Blocks retired so far (durably recorded). */
    std::uint64_t retiredBlocks() const { return retireMap_.retiredCount(); }

    /** Fraction of OOP capacity lost to retirement, in [0, 1]. */
    double
    degradedFraction() const
    {
        return static_cast<double>(retireMap_.retiredCount()) /
               static_cast<double>(numBlocks_);
    }

    /**
     * Retire block @p b: mark it Bad (persisted header), set its bit in
     * the durable retirement bitmap, and fence the bitmap write before
     * returning — callers may act on the retirement (reuse the capacity
     * accounting, ack transactions) only after the fence, a contract
     * declared to the analyzer as the "hoop-retire-bitmap" rule. The
     * caller must already have migrated any live data out (GC).
     * @return The fenced completion tick.
     */
    Tick retireBlock(std::uint32_t b, Tick now);

    /**
     * Adopt the durable retirement bitmap into the host mirror (start
     * of recovery): retired blocks become Bad and are never scanned,
     * allocated, or collected again.
     */
    void loadRetirement();

    StatSet &stats() { return stats_; }

  private:
    /** Persist block @p b's header (timed, background). */
    void writeHeader(std::uint32_t b, Tick now);

    /** Find and open an Unused block; returns false if none. */
    bool openNextBlock(Tick now);

    /** Write block @p b's host-side state, keeping freeBlocks_ exact. */
    void setState(std::uint32_t b, BlockState state);

    NvmDevice &nvm;
    const SystemConfig &cfg;
    StatSet stats_;

    // Hot-path counters resolved once; StatSet references stay valid
    // for the StatSet's lifetime.
    Counter &headerWritesC_;
    Counter &blocksOpenedC_;
    Counter &sliceWritesC_;
    Counter &sliceReadsC_;
    Counter &slotsSkippedBadC_;
    Counter &blocksRetiredC_;

    std::uint32_t numBlocks_;
    std::uint32_t slicesPerBlock_;
    std::vector<OopBlockInfo> blocks;

    /** Blocks in state Unused. */
    std::uint32_t freeBlocks_ = 0;

    /** Block currently accepting slices; kNoBlock when none open. */
    std::uint32_t currentBlock = kNoBlock;

    /** Round-robin allocation cursor (wear leveling, §III-D). */
    std::uint32_t allocCursor = 0;

    std::uint64_t nextSeq_ = 1;

    /** Durable bad-block bitmap (attached only when cfg.ft.enabled). */
    RetirementMap retireMap_;

    OrderingTracker *ordering_ = nullptr;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_OOP_REGION_HH
