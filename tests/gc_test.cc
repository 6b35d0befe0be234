/**
 * @file
 * Tests for HOOP's garbage collector (Algorithm 1): committed-data
 * migration with coalescing, block recycling, open-transaction
 * pinning (checked against the all-transactions-committed rule on
 * random interleavings), mapping-table cleanup and the data-reduction
 * metric.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "hoop/hoop_controller.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
gcConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.oopBlockBytes = miB(1);
    cfg.auxBytes = miB(32);
    return cfg;
}

struct GcFixture : ::testing::Test
{
    GcFixture()
        : cfg(gcConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(nvm, cfg)
    {
    }

    void
    storeWords(CoreId core, Addr base, unsigned words,
               std::uint64_t v0)
    {
        for (unsigned i = 0; i < words; ++i) {
            std::uint64_t v = v0 + i;
            std::uint8_t b[8];
            std::memcpy(b, &v, 8);
            ctrl.storeWord(core, base + 8 * i, b, 0);
        }
    }

    SystemConfig cfg;
    NvmDevice nvm;
    HoopController ctrl;
};

TEST_F(GcFixture, MigratesCommittedDataHome)
{
    ctrl.txBegin(0, 0);
    storeWords(0, 0x1000, 8, 100);
    ctrl.txEnd(0, 0);

    EXPECT_EQ(nvm.peekWord(0x1000), 0u); // not yet home
    ctrl.drain(0);                       // close block + GC
    EXPECT_EQ(nvm.peekWord(0x1000), 100u);
    EXPECT_EQ(nvm.peekWord(0x1038), 107u);
    EXPECT_GT(ctrl.gc().stats().value("runs"), 0u);
    EXPECT_GT(ctrl.gc().stats().value("blocks_recycled"), 0u);
}

TEST_F(GcFixture, CoalescesRepeatedUpdates)
{
    // Ten transactions updating the same word: GC must write it home
    // exactly once, with the latest value.
    for (int t = 0; t < 10; ++t) {
        ctrl.txBegin(0, 0);
        storeWords(0, 0x2000, 1, 100 + t);
        ctrl.txEnd(0, 0);
    }
    ctrl.drain(0);
    EXPECT_EQ(nvm.peekWord(0x2000), 109u);
    EXPECT_EQ(ctrl.gc().stats().value("home_lines_written"), 1u);
    // 10 tx * 8 B modified, 8 B migrated -> 90% reduction.
    EXPECT_NEAR(ctrl.gc().dataReductionRatio(), 0.9, 0.01);
}

TEST_F(GcFixture, LatestVersionWinsAcrossSlices)
{
    ctrl.txBegin(0, 0);
    storeWords(0, 0x3000, 8, 0); // fills one slice
    storeWords(0, 0x3000, 8, 50); // same words again, second slice
    ctrl.txEnd(0, 0);
    ctrl.drain(0);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(nvm.peekWord(0x3000 + 8 * i), 50u + i);
}

TEST_F(GcFixture, OpenTransactionPinsBlock)
{
    // Core 1 keeps a transaction open while core 0 commits work; GC
    // must not recycle the shared in-use block.
    ctrl.txBegin(1, 0);
    storeWords(1, 0x9000, 1, 1); // open tx has a buffered word only
    std::uint8_t line[kCacheLineSize] = {};
    ctrl.evictLine(1, 0x9040, line, true, ctrl.currentTx(1), 0x01, 0);

    ctrl.txBegin(0, 0);
    storeWords(0, 0x4000, 8, 7);
    ctrl.txEnd(0, 0);

    ctrl.region().closeCurrentBlock(0);
    ctrl.gc().run(0);
    // Nothing recycled: the single full block contains the open tx's
    // eviction slice.
    EXPECT_EQ(ctrl.gc().stats().value("blocks_recycled"), 0u);
    EXPECT_EQ(nvm.peekWord(0x4000), 0u);

    // After the open transaction commits, GC can proceed.
    ctrl.txEnd(1, 0);
    ctrl.region().closeCurrentBlock(0);
    ctrl.gc().run(0);
    EXPECT_GT(ctrl.gc().stats().value("blocks_recycled"), 0u);
    EXPECT_EQ(nvm.peekWord(0x4000), 7u);
    EXPECT_EQ(nvm.peekWord(0x9000), 1u);
}

TEST_F(GcFixture, MappingEntriesDroppedForCollectedBlocks)
{
    const TxId tx = ctrl.txBegin(0, 0);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 77;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x5000, line, true, tx, 0x01, 0);
    ctrl.txEnd(0, 0);
    ASSERT_TRUE(ctrl.mappingTable().lookup(0x5000).has_value());

    ctrl.drain(0);
    EXPECT_FALSE(ctrl.mappingTable().lookup(0x5000).has_value());
    EXPECT_EQ(nvm.peekWord(0x5000), 77u);
    // The migrated line parks in the eviction buffer.
    std::uint8_t out[kCacheLineSize];
    EXPECT_TRUE(ctrl.evictionBuffer().get(0x5000, out));
}

TEST_F(GcFixture, EvictSliceParticipatesInCoalescing)
{
    // A committed eviction slice must deliver its words to GC even
    // though it is not part of the recovery chain: evict a word that
    // was never captured through storeWord.
    const TxId tx = ctrl.txBegin(0, 0);
    storeWords(0, 0x6000, 1, 11);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 22;
    std::memcpy(line + 8, &v, 8); // word 1 of the line
    ctrl.evictLine(0, 0x6000, line, true, tx, /*mask=*/0x02, 0);
    ctrl.txEnd(0, 0);
    ctrl.drain(0);
    EXPECT_EQ(nvm.peekWord(0x6000), 11u); // from the chain slice
    EXPECT_EQ(nvm.peekWord(0x6008), 22u); // from the eviction slice
}

TEST_F(GcFixture, NoopWhenNothingCollectable)
{
    const Tick done = ctrl.gc().run(1000);
    EXPECT_EQ(done, 1000u);
    EXPECT_EQ(ctrl.gc().stats().value("runs"), 0u);
    EXPECT_GT(ctrl.gc().stats().value("noop_runs"), 0u);
}

TEST_F(GcFixture, PeriodicMaintenanceTriggersGc)
{
    ctrl.txBegin(0, 0);
    storeWords(0, 0x7000, 8, 3);
    ctrl.txEnd(0, 0);
    ctrl.region().closeCurrentBlock(0);
    // Before the period elapses: no GC.
    ctrl.maintenance(cfg.gcPeriod / 2);
    const auto runs_before = ctrl.gc().stats().value("runs");
    // After the period: GC fires.
    ctrl.maintenance(cfg.gcPeriod + 1);
    EXPECT_GT(ctrl.gc().stats().value("runs"), runs_before);
}

TEST_F(GcFixture, GcChargesNvmTraffic)
{
    ctrl.txBegin(0, 0);
    storeWords(0, 0x8000, 8, 1);
    ctrl.txEnd(0, 0);
    const auto written_before = nvm.bytesWritten();
    const auto read_before = nvm.bytesRead();
    ctrl.drain(0);
    EXPECT_GT(nvm.bytesRead(), read_before);     // slice + home reads
    EXPECT_GT(nvm.bytesWritten(), written_before); // home lines
}

/**
 * Algorithm 1's rule, read back from NVM: the live blocks in openSeq
 * order, up to the first that is not Full or holds a slice (data,
 * eviction or commit record) of a transaction in @p open.
 */
std::vector<std::uint32_t>
allCommittedPrefix(HoopController &ctrl, const std::set<TxId> &open)
{
    OopRegion &r = ctrl.region();
    std::vector<std::uint32_t> live;
    for (std::uint32_t b = 0; b < r.numBlocks(); ++b) {
        if (r.block(b).state != BlockState::Unused)
            live.push_back(b);
    }
    std::sort(live.begin(), live.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return r.block(a).openSeq < r.block(b).openSeq;
              });
    std::vector<std::uint32_t> prefix;
    for (std::uint32_t b : live) {
        if (r.block(b).state != BlockState::Full)
            break;
        bool pinned = false;
        for (std::uint32_t slot = 1; slot < r.block(b).writePtr; ++slot) {
            const MemorySlice s =
                r.peekSlice(b * (r.slicesPerBlock() + 1) + slot);
            pinned = pinned || open.contains(s.txId);
        }
        if (pinned)
            break;
        prefix.push_back(b);
    }
    return prefix;
}

// The pin rule (GC stops at the first block holding some open
// transaction's first slice) must collect exactly the blocks the
// all-transactions-committed rule collects, on random interleavings
// of four cores' transactions, block closes, GC runs and evictions
// tagged with any open or committed transaction.
TEST(GcPinRule, CollectsTheAllCommittedPrefix)
{
    SystemConfig cfg = gcConfig();
    cfg.numCores = 4;
    cfg.oopBlockBytes = kiB(4);
    cfg.oopBytes = 48 * kiB(4);
    unsigned checked = 0;
    unsigned partial = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
        HoopController ctrl(nvm, cfg);
        Rng rng(seed);
        std::set<TxId> open;
        std::vector<TxId> committed;
        for (unsigned step = 0; step < 2500; ++step) {
            const auto core =
                static_cast<CoreId>(rng.nextBounded(cfg.numCores));
            const std::uint64_t op = rng.nextBounded(100);
            std::uint8_t line[kCacheLineSize];
            for (unsigned w = 0; w < kWordsPerLine; ++w) {
                const std::uint64_t v = rng.next();
                std::memcpy(line + w * kWordSize, &v, kWordSize);
            }
            const Addr addr = 0x10000 + rng.nextBounded(512) * kWordSize;
            if (op < 3) {
                ctrl.region().closeCurrentBlock(0);
            } else if (op < 8) {
                const std::vector<std::uint32_t> want =
                    allCommittedPrefix(ctrl, open);
                std::vector<BlockState> before;
                for (std::uint32_t b = 0; b < ctrl.region().numBlocks();
                     ++b)
                    before.push_back(ctrl.region().block(b).state);
                // Every Full block precedes the open one in openSeq
                // order, so a prefix shorter than this count stopped
                // at a pinned Full block.
                const auto full = static_cast<std::size_t>(
                    std::count(before.begin(), before.end(),
                               BlockState::Full));
                ctrl.gc().run(0);
                std::vector<std::uint32_t> got;
                for (std::uint32_t b = 0; b < before.size(); ++b) {
                    if (before[b] != BlockState::Unused &&
                        ctrl.region().block(b).state ==
                            BlockState::Unused)
                        got.push_back(b);
                }
                std::vector<std::uint32_t> sorted_want = want;
                std::sort(sorted_want.begin(), sorted_want.end());
                ASSERT_EQ(got, sorted_want) << "step " << step;
                ++checked;
                if (!want.empty() && want.size() < full)
                    ++partial;
            } else if (op < 20) {
                // Any core evicts a line tagged with an open or a
                // committed transaction.
                std::vector<TxId> tags(open.begin(), open.end());
                if (!committed.empty())
                    tags.push_back(
                        committed[rng.nextBounded(committed.size())]);
                if (tags.empty())
                    continue;
                const TxId tag = tags[rng.nextBounded(tags.size())];
                ctrl.evictLine(core, lineAddr(addr), line, true, tag,
                               static_cast<std::uint8_t>(rng.next()), 0);
            } else if (ctrl.inTx(core) && op < 30) {
                const TxId tx = ctrl.currentTx(core);
                ctrl.txEnd(core, 0);
                open.erase(tx);
                committed.push_back(tx);
            } else {
                if (!ctrl.inTx(core))
                    open.insert(ctrl.txBegin(core, 0));
                ctrl.storeWord(core, addr, line, 0);
            }
        }
    }
    EXPECT_GT(checked, 1000u);
    // Prefixes cut short by a Full block that an open transaction
    // pins: the case where a wrong pin shows.
    EXPECT_GT(partial, 100u);
}

} // namespace
} // namespace hoopnvm
