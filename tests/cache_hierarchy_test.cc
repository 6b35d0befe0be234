/**
 * @file
 * Tests for the three-level hierarchy over the native controller:
 * functional load/store correctness, inclusion, write-back behaviour,
 * eviction routing, coherence across cores, and debug reads.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "controller/native_controller.hh"
#include "mem/cache_hierarchy.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(32);
    // Small caches force evictions quickly.
    cfg.cache.l1Size = kiB(1);
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Size = kiB(4);
    cfg.cache.l2Assoc = 2;
    cfg.cache.llcSize = kiB(16);
    cfg.cache.llcAssoc = 4;
    return cfg;
}

struct HierarchyFixture : ::testing::Test
{
    HierarchyFixture()
        : cfg(tinyConfig()),
          nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(nvm, cfg),
          hier(cfg)
    {
        hier.setController(&ctrl);
    }

    SystemConfig cfg;
    NvmDevice nvm;
    NativeController ctrl;
    CacheHierarchy hier;
};

TEST_F(HierarchyFixture, StoreThenLoadSameCore)
{
    Tick t = hier.storeWord(0, 0x100, 0xabcd, 0);
    std::uint64_t v = 0;
    t = hier.loadWord(0, 0x100, v, t);
    EXPECT_EQ(v, 0xabcdu);
}

TEST_F(HierarchyFixture, LoadsFromNvmOnColdMiss)
{
    nvm.pokeWord(0x200, 777);
    std::uint64_t v = 0;
    hier.loadWord(0, 0x200, v, 0);
    EXPECT_EQ(v, 777u);
}

TEST_F(HierarchyFixture, HitLatencyOrdering)
{
    nvm.pokeWord(0x300, 1);
    std::uint64_t v;
    // Cold miss pays NVM latency.
    const Tick miss = hier.loadWord(0, 0x300, v, 0);
    // Warm hit is much cheaper.
    const Tick hit = hier.loadWord(0, 0x300, v, miss) - miss;
    EXPECT_LT(hit, nsToTicks(10));
    EXPECT_GE(miss, cfg.nvm.readLatency);
}

TEST_F(HierarchyFixture, CapacityEvictionWritesBack)
{
    // Stream writes over 4x the LLC capacity; dirty lines must reach
    // the controller (which writes them home for Native).
    const std::uint64_t span = cfg.cache.llcSize * 4;
    Tick t = 0;
    for (Addr a = 0; a < span; a += kCacheLineSize)
        t = hier.storeWord(0, a, a + 1, t);
    EXPECT_GT(ctrl.stats().value("home_writebacks"), 0u);
    // All values readable through the hierarchy (cache or NVM).
    for (Addr a = 0; a < span; a += kCacheLineSize) {
        std::uint64_t v = 0;
        t = hier.loadWord(0, a, v, t);
        ASSERT_EQ(v, a + 1);
    }
}

TEST_F(HierarchyFixture, DebugReadSeesDirtyCacheData)
{
    hier.storeWord(0, 0x400, 42, 0);
    EXPECT_EQ(nvm.peekWord(0x400), 0u); // not yet written back
    std::uint64_t v = 0;
    hier.debugRead(0x400, &v, kWordSize);
    EXPECT_EQ(v, 42u);
}

TEST_F(HierarchyFixture, DebugReadPrefersNewerPrivateCopy)
{
    // Core 0 dirties the line; core 1's store then merges core 0's
    // copy into the LLC, invalidates it and dirties its own L1 copy.
    // The LLC now holds core 0's bytes and only core 1's L1 is current.
    Tick t = hier.storeWord(0, 0x700, 1, 0);
    t = hier.storeWord(1, 0x708, 2, t);
    const CacheLine llc_line = hier.llc().peekLine(0x700);
    const CacheLine l1_line = hier.l1(1).peekLine(0x700);
    ASSERT_TRUE(llc_line);
    ASSERT_TRUE(l1_line);
    ASSERT_TRUE(l1_line.dirty());
    ASSERT_FALSE(hier.l1(0).peekLine(0x700));
    ASSERT_NE(std::memcmp(llc_line.data(), l1_line.data(),
                          kCacheLineSize),
              0)
        << "the LLC copy must be stale for this test";

    for (bool batch : {false, true}) {
        std::uint8_t line[kCacheLineSize] = {};
        if (batch)
            hier.beginDebugBatch();
        hier.debugRead(0x700, line, kCacheLineSize);
        if (batch)
            hier.endDebugBatch();
        EXPECT_EQ(std::memcmp(line, l1_line.data(), kCacheLineSize), 0)
            << (batch ? "inside" : "outside") << " a debug batch";
    }

    // A line no cache holds reads from the controller.
    nvm.pokeWord(0x2000, 33);
    ASSERT_FALSE(hier.llc().peekLine(0x2000));
    for (bool batch : {false, true}) {
        std::uint64_t v = 0;
        if (batch)
            hier.beginDebugBatch();
        hier.debugRead(0x2000, &v, kWordSize);
        if (batch)
            hier.endDebugBatch();
        EXPECT_EQ(v, 33u) << (batch ? "inside" : "outside")
                          << " a debug batch";
    }
}

TEST_F(HierarchyFixture, CrossCoreCoherence)
{
    // Core 0 writes; core 1 must read the new value even though the
    // line is dirty in core 0's private caches.
    Tick t = hier.storeWord(0, 0x500, 11, 0);
    std::uint64_t v = 0;
    t = hier.loadWord(1, 0x500, v, t);
    EXPECT_EQ(v, 11u);

    // Core 1 overwrites; core 0 must observe it.
    t = hier.storeWord(1, 0x500, 22, t);
    t = hier.loadWord(0, 0x500, v, t);
    EXPECT_EQ(v, 22u);
}

TEST_F(HierarchyFixture, DowngradeLeavesNoStalePrivateCopy)
{
    // Core 0's load puts the line clean in its L1 and L2; its store
    // then hits L1, so the L2 copy keeps the old bytes. Core 1's load
    // merges core 0's dirty L1 copy into the LLC and drops it. Core 0
    // must not find its old L2 copy afterwards.
    std::uint64_t v = 1;
    Tick t = hier.loadWord(0, 0x900, v, 0);
    ASSERT_EQ(v, 0u);
    t = hier.storeWord(0, 0x900, 11, t);
    t = hier.loadWord(1, 0x900, v, t);
    EXPECT_EQ(v, 11u);

    v = 0;
    hier.debugRead(0x900, &v, kWordSize);
    EXPECT_EQ(v, 11u);
    t = hier.loadWord(0, 0x900, v, t);
    EXPECT_EQ(v, 11u);
}

TEST_F(HierarchyFixture, WritebackAllDrainsDirtyLines)
{
    Tick t = 0;
    for (Addr a = 0; a < kiB(2); a += kCacheLineSize)
        t = hier.storeWord(0, a, a ^ 0x55, t);
    hier.writebackAll(t);
    for (Addr a = 0; a < kiB(2); a += kCacheLineSize)
        ASSERT_EQ(nvm.peekWord(a), a ^ 0x55);
    // Caches are empty afterwards.
    EXPECT_FALSE(hier.llc().peekLine(0));
}

TEST_F(HierarchyFixture, DropAllLosesDirtyData)
{
    hier.storeWord(0, 0x600, 99, 0);
    hier.dropAll();
    EXPECT_EQ(nvm.peekWord(0x600), 0u);
    std::uint64_t v = 1;
    hier.debugRead(0x600, &v, kWordSize);
    EXPECT_EQ(v, 0u);
}

TEST_F(HierarchyFixture, PersistentBitSetInTx)
{
    ctrl.txBegin(0, 0);
    hier.storeWord(0, 0x700, 5, 0);
    const CacheLine l = hier.l1(0).peekLine(lineAddr(0x700));
    ASSERT_TRUE(l);
    EXPECT_TRUE(l.persistent());
    EXPECT_EQ(l.txId(), ctrl.currentTx(0));
    EXPECT_EQ(l.wordMask(), 1u << ((0x700 % 64) / 8));
    ctrl.txEnd(0, 1);
}

TEST_F(HierarchyFixture, NonTxStoreIsNotPersistent)
{
    hier.storeWord(0, 0x800, 5, 0);
    const CacheLine l = hier.l1(0).peekLine(lineAddr(0x800));
    ASSERT_TRUE(l);
    EXPECT_FALSE(l.persistent());
    EXPECT_TRUE(l.dirty());
}

TEST_F(HierarchyFixture, LlcMissRatioTracked)
{
    std::uint64_t v;
    // 4 cold LLC misses.
    for (Addr a = 0; a < 4 * kCacheLineSize; a += kCacheLineSize)
        hier.loadWord(0, a, v, 0);
    EXPECT_DOUBLE_EQ(hier.llcMissRatio(), 1.0);
    // Re-fetch from the LLC after dropping the private copies.
    hier.l1(0).invalidateAll();
    hier.l2(0).invalidateAll();
    for (Addr a = 0; a < 4 * kCacheLineSize; a += kCacheLineSize)
        hier.loadWord(0, a, v, 0);
    EXPECT_DOUBLE_EQ(hier.llcMissRatio(), 0.5);
}

} // namespace
} // namespace hoopnvm
