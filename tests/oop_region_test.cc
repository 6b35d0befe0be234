/**
 * @file
 * Unit tests for the log-structured OOP region: block allocation and
 * state machine, round-robin wear leveling, slice IO and header
 * persistence.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "hoop/oop_region.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(8);
    cfg.oopBytes = miB(4);
    cfg.oopBlockBytes = miB(1);
    cfg.auxBytes = miB(16);
    return cfg;
}

struct RegionFixture : ::testing::Test
{
    RegionFixture()
        : cfg(smallConfig()),
          nvm(cfg.nvmCapacity(), cfg.nvm),
          region(nvm, cfg)
    {
    }

    SystemConfig cfg;
    NvmDevice nvm;
    OopRegion region;
};

TEST_F(RegionFixture, Geometry)
{
    EXPECT_EQ(region.numBlocks(), 4u);
    EXPECT_EQ(region.slicesPerBlock(), miB(1) / 128 - 1);
    EXPECT_EQ(region.freeBlocks(), 4u);
}

TEST_F(RegionFixture, AllocOpensBlock)
{
    std::uint32_t idx;
    ASSERT_TRUE(region.allocSlice(idx, 0));
    EXPECT_EQ(region.blockOfSlice(idx), 0u);
    EXPECT_EQ(region.block(0).state, BlockState::InUse);
    EXPECT_EQ(region.freeBlocks(), 3u);
    // Header persisted to NVM.
    const BlockHeaderView h = region.peekHeader(0);
    EXPECT_TRUE(h.valid);
    EXPECT_EQ(h.state, BlockState::InUse);
}

TEST_F(RegionFixture, SliceAddressesAreDistinctAndInRange)
{
    std::uint32_t prev = 0;
    for (int i = 0; i < 100; ++i) {
        std::uint32_t idx;
        ASSERT_TRUE(region.allocSlice(idx, 0));
        if (i > 0) {
            EXPECT_NE(idx, prev);
        }
        const Addr a = region.sliceAddr(idx);
        EXPECT_GE(a, cfg.oopBase());
        EXPECT_LT(a, cfg.oopBase() + cfg.oopBytes);
        EXPECT_TRUE(isAligned(a, MemorySlice::kSliceBytes));
        prev = idx;
    }
}

TEST_F(RegionFixture, SliceWriteReadRoundTrip)
{
    std::uint32_t idx;
    ASSERT_TRUE(region.allocSlice(idx, 0));
    MemorySlice s;
    s.type = SliceType::Data;
    s.count = 2;
    s.txId = 5;
    s.seq = region.allocSeq();
    s.words[0] = 111;
    s.words[1] = 222;
    s.homeAddrs[0] = 64;
    s.homeAddrs[1] = 72;
    region.writeSlice(0, idx, s);

    const MemorySlice r = region.peekSlice(idx);
    EXPECT_EQ(r.type, SliceType::Data);
    EXPECT_EQ(r.words[0], 111u);
    EXPECT_EQ(r.words[1], 222u);

    Tick done = 0;
    const MemorySlice t = region.readSlice(0, idx, &done);
    EXPECT_EQ(t.words[1], 222u);
    EXPECT_GT(done, 0u);
}

TEST_F(RegionFixture, BlockFillsAndBecomesFull)
{
    std::uint32_t idx = 0;
    for (std::uint32_t i = 0; i <= region.slicesPerBlock(); ++i)
        ASSERT_TRUE(region.allocSlice(idx, 0));
    // First block must now be Full and a second block opened.
    EXPECT_EQ(region.block(0).state, BlockState::Full);
    EXPECT_EQ(region.block(1).state, BlockState::InUse);
    EXPECT_EQ(region.blockOfSlice(idx), 1u);
}

TEST_F(RegionFixture, RegionExhaustionReturnsFalse)
{
    std::uint32_t idx;
    const std::uint64_t total =
        static_cast<std::uint64_t>(region.numBlocks()) *
        region.slicesPerBlock();
    for (std::uint64_t i = 0; i < total; ++i)
        ASSERT_TRUE(region.allocSlice(idx, 0));
    EXPECT_FALSE(region.allocSlice(idx, 0));
}

TEST_F(RegionFixture, RoundRobinReuse)
{
    // Fill block 0, recycle it, fill blocks 1..3: the next open must
    // wrap to block 0 (uniform aging).
    std::uint32_t idx;
    for (std::uint32_t i = 0; i < region.slicesPerBlock(); ++i)
        ASSERT_TRUE(region.allocSlice(idx, 0));
    ASSERT_TRUE(region.allocSlice(idx, 0)); // opens block 1
    region.setBlockState(0, BlockState::Unused, 0);

    for (std::uint32_t b = 1; b < 4; ++b) {
        while (region.block(b).state == BlockState::InUse)
            ASSERT_TRUE(region.allocSlice(idx, 0));
    }
    EXPECT_EQ(region.blockOfSlice(idx), 0u);
}

TEST_F(RegionFixture, UnusedTransitionClearsBookkeeping)
{
    std::uint32_t idx;
    ASSERT_TRUE(region.allocSlice(idx, 0));
    region.setBlockState(0, BlockState::Unused, 0);
    EXPECT_EQ(region.block(0).writePtr, 1u);
    EXPECT_EQ(region.peekHeader(0).state, BlockState::Unused);
}

TEST_F(RegionFixture, StaleSliceDetectionViaOpenSeq)
{
    // Write a slice, recycle the block, reopen it: the stale slice's
    // seq predates the new openSeq.
    std::uint32_t idx;
    ASSERT_TRUE(region.allocSlice(idx, 0));
    MemorySlice s;
    s.type = SliceType::Data;
    s.count = 1;
    s.txId = 1;
    s.seq = region.allocSeq();
    s.homeAddrs[0] = 64;
    region.writeSlice(0, idx, s);

    region.setBlockState(0, BlockState::Unused, 0);
    region.reset();
    region.setNextSeq(s.seq + 1);

    std::uint32_t idx2;
    ASSERT_TRUE(region.allocSlice(idx2, 0));
    const BlockHeaderView h = region.peekHeader(region.blockOfSlice(idx2));
    // Stale slice seq < openSeq of the re-opened block.
    EXPECT_LT(s.seq, h.openSeq + 1);
    EXPECT_GE(h.openSeq, s.seq + 1);
}

TEST_F(RegionFixture, ResetClearsEverything)
{
    std::uint32_t idx;
    ASSERT_TRUE(region.allocSlice(idx, 0));
    region.reset();
    EXPECT_EQ(region.freeBlocks(), region.numBlocks());
    for (std::uint32_t b = 0; b < region.numBlocks(); ++b)
        EXPECT_EQ(region.peekHeader(b).state, BlockState::Unused);
}

/** Blocks in state Unused, counted the slow way. */
std::uint32_t
scanFreeBlocks(const OopRegion &region)
{
    std::uint32_t n = 0;
    for (std::uint32_t b = 0; b < region.numBlocks(); ++b) {
        if (region.block(b).state == BlockState::Unused)
            ++n;
    }
    return n;
}

TEST(RegionFreeCount, MatchesAScanUnderRandomTransitions)
{
    // The crash-check geometry: 1 MiB of 8 KiB blocks, with fault
    // tolerance on so that blocks can retire.
    SystemConfig cfg = smallConfig();
    cfg.oopBytes = miB(1);
    cfg.oopBlockBytes = kiB(8);
    cfg.ft.enabled = true;
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    OopRegion region(nvm, cfg);
    ASSERT_EQ(region.numBlocks(), 128u);
    ASSERT_EQ(region.freeBlocks(), 128u);

    Rng rng(22);
    const BlockState live[] = {BlockState::Unused, BlockState::InUse,
                               BlockState::Full, BlockState::Gc};
    std::uint64_t retired = 0, resets = 0, reloads = 0;
    for (unsigned step = 0; step < 4000; ++step) {
        const std::uint64_t op = rng.nextBounded(100);
        const auto b =
            static_cast<std::uint32_t>(rng.nextBounded(region.numBlocks()));
        const bool bad = region.block(b).state == BlockState::Bad;
        if (op < 50) {
            if (!bad)
                region.setBlockState(b, live[rng.nextBounded(4)], 0);
        } else if (op < 80) {
            std::uint32_t idx;
            region.allocSlice(idx, 0);
        } else if (op < 90) {
            region.closeCurrentBlock(0);
        } else if (op < 96) {
            // Leave most blocks allocatable.
            if (!bad && retired < 48) {
                region.retireBlock(b, 0);
                ++retired;
            }
        } else if (op < 99) {
            region.reset();
            ++resets;
        } else {
            // A recovery-time region over the same device adopts the
            // durable retirement bitmap.
            OopRegion reborn(nvm, cfg);
            reborn.loadRetirement();
            ASSERT_EQ(reborn.freeBlocks(), scanFreeBlocks(reborn))
                << "reloaded at step " << step;
            ASSERT_EQ(reborn.freeBlocks(), 128u - retired);
            ++reloads;
        }
        ASSERT_EQ(region.freeBlocks(), scanFreeBlocks(region))
            << "step " << step << " op " << op;
    }
    EXPECT_GT(retired, 0u);
    EXPECT_GT(resets, 0u);
    EXPECT_GT(reloads, 0u);
}

} // namespace
} // namespace hoopnvm
