#include "hoop/oop_region.hh"

#include <cstring>

#include "analysis/ordering_tracker.hh"
#include "common/crc32.hh"
#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/** Magic marking a valid OOP block header. */
constexpr std::uint32_t kHeaderMagic = 0x484f4f50; // "HOOP"

/**
 * openSeq written into Unused headers: no sequence number can reach
 * it, so even if a torn re-open persists the new InUse state byte but
 * reverts the openSeq word, every slice in the block reads as stale
 * and recovery scans an empty block instead of resurrecting slices
 * from the block's previous life.
 */
constexpr std::uint64_t kSealedSeq = ~static_cast<std::uint64_t>(0);

/**
 * On-NVM block header layout (fits in the 128-byte header slot).
 *
 * The CRC covers magic, index and openSeq but deliberately *not*
 * state: state transitions (InUse->Full->Gc->Unused) rewrite only the
 * state byte with openSeq unchanged, and any torn/stale reading of the
 * state byte is safe to act on (see peekHeader), so excluding it keeps
 * those single-byte updates tear-free by construction. The only header
 * write that changes CRC-covered fields is a block (re)open, which by
 * the channel's write ordering can be in flight at a crash only while
 * the block holds no committed data — rejecting it loses nothing.
 */
struct BlockHeader
{
    std::uint32_t magic;
    std::uint32_t index;
    std::uint8_t state;
    std::uint8_t pad[3];
    std::uint32_t crc;
    std::uint64_t openSeq;
};

/** Header CRC over the fields that never change in place. */
std::uint32_t
headerCrc(const BlockHeader &h)
{
    std::uint8_t buf[16];
    std::memcpy(buf, &h.magic, 4);
    std::memcpy(buf + 4, &h.index, 4);
    std::memcpy(buf + 8, &h.openSeq, 8);
    return crc32c(buf, sizeof(buf));
}

} // namespace

OopRegion::OopRegion(NvmDevice &nvm_, const SystemConfig &cfg_)
    : nvm(nvm_), cfg(cfg_), stats_("oop_region"),
      headerWritesC_(stats_.counter("header_writes")),
      blocksOpenedC_(stats_.counter("blocks_opened")),
      sliceWritesC_(stats_.counter("slice_writes")),
      sliceReadsC_(stats_.counter("slice_reads")),
      slotsSkippedBadC_(stats_.counter("slots_skipped_bad")),
      blocksRetiredC_(stats_.counter("blocks_retired"))
{
    HOOP_ASSERT(cfg.oopBlockBytes % MemorySlice::kSliceBytes == 0,
                "OOP block size must be a multiple of the slice size");
    HOOP_ASSERT(cfg.oopBytes % cfg.oopBlockBytes == 0,
                "OOP region size must be a multiple of the block size");
    numBlocks_ =
        static_cast<std::uint32_t>(cfg.oopBytes / cfg.oopBlockBytes);
    slicesPerBlock_ = static_cast<std::uint32_t>(
        cfg.oopBlockBytes / MemorySlice::kSliceBytes - 1);
    HOOP_ASSERT(numBlocks_ >= 2, "need at least two OOP blocks");
    blocks.resize(numBlocks_);
    freeBlocks_ = numBlocks_;
    if (cfg.ft.enabled) {
        // The bitmap shares the (HOOP-private) aux region with the GC
        // watermark word: watermark at auxBase, map one line above it.
        const Addr map_base = cfg.auxBase() + kCacheLineSize;
        HOOP_ASSERT(kCacheLineSize + RetirementMap::areaBytes(
                                         numBlocks_) <= cfg.auxBytes,
                    "aux region too small for the retirement map");
        retireMap_.attach(nvm, map_base, numBlocks_);
    }
}

void
OopRegion::setState(std::uint32_t b, BlockState state)
{
    if (blocks[b].state == BlockState::Unused)
        --freeBlocks_;
    if (state == BlockState::Unused)
        ++freeBlocks_;
    blocks[b].state = state;
}

Addr
OopRegion::blockBase(std::uint32_t b) const
{
    return cfg.oopBase() + static_cast<Addr>(b) * cfg.oopBlockBytes;
}

Addr
OopRegion::sliceAddr(std::uint32_t idx) const
{
    const std::uint32_t b = blockOfSlice(idx);
    const std::uint32_t slot = idx % (slicesPerBlock_ + 1);
    HOOP_ASSERT(slot >= 1, "slice index names a header slot");
    return blockBase(b) +
           static_cast<Addr>(slot) * MemorySlice::kSliceBytes;
}

void
OopRegion::writeHeader(std::uint32_t b, Tick now)
{
    std::uint8_t buf[kCacheLineSize] = {};
    BlockHeader h{};
    h.magic = kHeaderMagic;
    h.index = b;
    h.state = static_cast<std::uint8_t>(blocks[b].state);
    // Bad joins Unused under kSealedSeq: a retired block holds no
    // recoverable data, so every slice in it must read as stale.
    h.openSeq = blocks[b].state == BlockState::Unused ||
                        blocks[b].state == BlockState::Bad
                    ? kSealedSeq
                    : blocks[b].openSeq;
    h.crc = headerCrc(h);
    std::memcpy(buf, &h, sizeof(h));
    // Headers persist as one full line write (the header slot).
    nvm.write(now, blockBase(b), buf, kCacheLineSize);
    ++headerWritesC_;
}

bool
OopRegion::openNextBlock(Tick now)
{
    for (std::uint32_t i = 0; i < numBlocks_; ++i) {
        const std::uint32_t b = (allocCursor + i) % numBlocks_;
        if (blocks[b].state == BlockState::Unused) {
            // Program-verify the header line before trusting the block:
            // a header on uncorrectable cells can never be re-read, so
            // the (free) block is retired on the spot.
            if (retireMap_.attached() &&
                nvm.faults().uncorrectableInRange(blockBase(b),
                                                  kCacheLineSize)) {
                retireBlock(b, now);
                continue;
            }
            // Round-robin advance gives uniform block aging (§III-D).
            allocCursor = (b + 1) % numBlocks_;
            setState(b, BlockState::InUse);
            blocks[b].writePtr = 1;
            blocks[b].openSeq = nextSeq_;
            writeHeader(b, now);
            currentBlock = b;
            ++blocksOpenedC_;
            return true;
        }
    }
    return false;
}

bool
OopRegion::allocSlice(std::uint32_t &idx, Tick now)
{
    for (;;) {
        if (currentBlock == kNoBlock ||
            blocks[currentBlock].writePtr > slicesPerBlock_) {
            if (currentBlock != kNoBlock &&
                blocks[currentBlock].writePtr > slicesPerBlock_) {
                setBlockState(currentBlock, BlockState::Full, now);
                currentBlock = kNoBlock;
            }
            if (!openNextBlock(now))
                return false;
        }
        OopBlockInfo &blk = blocks[currentBlock];
        idx = currentBlock * (slicesPerBlock_ + 1) + blk.writePtr;
        ++blk.writePtr;
        if (!retireMap_.attached() || !slotUncorrectable(idx))
            return true;
        // Program-verify failure: the slot sits on permanently
        // uncorrectable cells, so data written there would be lost.
        // Skip it (the capacity loss is the cost of not corrupting)
        // and flag the block for retirement once enough slots died.
        ++blk.badSlots;
        ++slotsSkippedBadC_;
        const double bad_fraction =
            static_cast<double>(blk.badSlots) /
            static_cast<double>(slicesPerBlock_);
        if (bad_fraction >= cfg.ft.retireBadSlotFraction)
            blk.retirePending = true;
    }
}

Tick
OopRegion::writeSlice(Tick now, std::uint32_t idx, const MemorySlice &s)
{
    std::uint8_t buf[MemorySlice::kSliceBytes];
    s.encode(buf);
    ++sliceWritesC_;
    return nvm.write(now, sliceAddr(idx), buf,
                     MemorySlice::kSliceBytes);
}

MemorySlice
OopRegion::readSlice(Tick now, std::uint32_t idx, Tick *completion)
{
    std::uint8_t buf[MemorySlice::kSliceBytes];
    const Tick done =
        nvm.read(now, sliceAddr(idx), buf, MemorySlice::kSliceBytes);
    if (completion)
        *completion = done;
    ++sliceReadsC_;
    return MemorySlice::decode(buf);
}

MemorySlice
OopRegion::peekSlice(std::uint32_t idx) const
{
    std::uint8_t buf[MemorySlice::kSliceBytes];
    nvm.peek(sliceAddr(idx), buf, MemorySlice::kSliceBytes);
    return MemorySlice::decode(buf);
}

BlockHeaderView
OopRegion::peekHeader(std::uint32_t b) const
{
    BlockHeader h{};
    nvm.peek(blockBase(b), &h, sizeof(h));
    BlockHeaderView v;
    if (h.magic != kHeaderMagic)
        return v;
    if (h.crc != headerCrc(h)) {
        // A torn block (re)open or a media fault on the header: the
        // openSeq cannot be trusted, so neither can any slice in the
        // block. Report it distinctly from a never-written slot.
        v.crcFailed = true;
        return v;
    }
    // The state byte is outside the CRC (it transitions in place); any
    // torn old/new reading of it is safe: InUse/Full/Gc are all
    // scanned, and a block already recycled to Unused has had its
    // committed content migrated home before the Unused header write
    // was issued.
    v.valid = true;
    v.state = static_cast<BlockState>(h.state);
    v.openSeq = h.openSeq;
    return v;
}

void
OopRegion::closeCurrentBlock(Tick now)
{
    if (currentBlock == kNoBlock)
        return;
    setBlockState(currentBlock, BlockState::Full, now);
    currentBlock = kNoBlock;
}

void
OopRegion::setBlockState(std::uint32_t b, BlockState state, Tick now)
{
    setState(b, state);
    if (state == BlockState::Unused) {
        blocks[b].writePtr = 1;
        blocks[b].badSlots = 0; // re-counted on reopen (cells stay bad)
        blocks[b].retirePending = false;
    }
    writeHeader(b, now);
}

std::uint64_t
OopRegion::gcWatermark() const
{
    // The watermark lives in the (otherwise unused under HOOP) aux
    // region; each controller owns a private device, so the fixed
    // address never collides.
    return nvm.peekWord(cfg.auxBase());
}

Tick
OopRegion::writeGcWatermark(std::uint64_t seq, Tick now)
{
    std::uint8_t buf[kWordSize];
    std::memcpy(buf, &seq, kWordSize);
    return nvm.write(now, cfg.auxBase(), buf, kWordSize);
}

void
OopRegion::reset()
{
    freeBlocks_ = 0;
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        // Retirement is permanent: a Bad block stays Bad across
        // recovery resets (its bitmap bit is durable).
        const bool bad = blocks[b].state == BlockState::Bad;
        blocks[b] = OopBlockInfo{};
        if (bad)
            blocks[b].state = BlockState::Bad;
        else
            ++freeBlocks_;
        // Recovery has drained the region; persist the cleared headers
        // untimed (recovery time is modelled separately).
        BlockHeader h{};
        h.magic = kHeaderMagic;
        h.index = b;
        h.state = static_cast<std::uint8_t>(blocks[b].state);
        h.openSeq = kSealedSeq;
        h.crc = headerCrc(h);
        nvm.poke(blockBase(b), &h, sizeof(h));
    }
    currentBlock = kNoBlock;
    if (retireMap_.attached())
        retireMap_.persistUntimed();
}

bool
OopRegion::slotUncorrectable(std::uint32_t idx) const
{
    return nvm.faults().uncorrectableInRange(sliceAddr(idx),
                                             MemorySlice::kSliceBytes);
}

Tick
OopRegion::retireBlock(std::uint32_t b, Tick now)
{
    HOOP_ASSERT(retireMap_.attached(),
                "retireBlock without fault tolerance enabled");
    HOOP_ASSERT(blocks[b].state != BlockState::Bad,
                "double retirement of block %u", b);
    if (currentBlock == b)
        currentBlock = kNoBlock;
    // The caller (GC, scrubber, allocator) migrated survivors already:
    // drop the bookkeeping exactly like a recycle, but land on Bad.
    blocks[b].writePtr = 1;
    blocks[b].badSlots = 0;
    blocks[b].retirePending = false;
    setState(b, BlockState::Bad);
    writeHeader(b, now);
    // Persist the retirement bit and fence it before returning: acting
    // on a retirement that could still tear would let recovery scan
    // (and trip over) the bad block. Declared as "hoop-retire-bitmap".
    const Tick done = retireMap_.persistRetire(b, now);
    if (ordering_)
        ordering_->addDep("hoop-retire-bitmap", 0);
    if (!cfg.debugSkipSettleFences)
        nvm.faults().settleUpTo(done);
    if (ordering_)
        ordering_->trigger("hoop-retire-bitmap", 0, done, 1, true);
    ++blocksRetiredC_;
    return done;
}

void
OopRegion::loadRetirement()
{
    if (!retireMap_.attached())
        return;
    retireMap_.loadDurable();
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        if (retireMap_.isRetired(b))
            setState(b, BlockState::Bad);
    }
}

} // namespace hoopnvm
