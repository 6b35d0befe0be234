/**
 * @file
 * Tests for the three-level hierarchy over the native controller:
 * functional load/store correctness, inclusion, write-back behaviour,
 * eviction routing, coherence across cores, and debug reads.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <map>

#include "common/rng.hh"
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
    // Core 1's dirty word is what debugRead returns, inside and
    // outside a debug batch, and what core 0 loads next.
    Tick t = hier.storeWord(0, 0x700, 1, 0);
    t = hier.storeWord(1, 0x708, 2, t);
    const CacheLine l1_line = hier.l1(1).peekLine(0x700);
    ASSERT_TRUE(l1_line);
    ASSERT_TRUE(l1_line.dirty());
    ASSERT_FALSE(hier.l1(0).peekLine(0x700));

    for (bool batch : {false, true}) {
        std::uint64_t words[2] = {};
        if (batch)
            hier.beginDebugBatch();
        hier.debugRead(0x700, words, sizeof(words));
        if (batch)
            hier.endDebugBatch();
        EXPECT_EQ(words[0], 1u) << (batch ? "inside" : "outside")
                                << " a debug batch";
        EXPECT_EQ(words[1], 2u) << (batch ? "inside" : "outside")
                                << " a debug batch";
    }
    std::uint64_t loaded = 0;
    hier.loadWord(0, 0x708, loaded, t);
    EXPECT_EQ(loaded, 2u);

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

/** The LLC shape OneCopyProperty runs under, named for the test. */
struct Geometry
{
    const char *name;
    unsigned llcAssoc;
};

/**
 * Seeded random traffic against a flat reference image: loads, stores
 * inside and outside transactions and writebackAll, from 2-4 cores.
 * After every step, the loaded word and debugReads of two lines must
 * match the image, and the caches must hold their structural
 * invariants: each private line is in the LLC and reads its LLC way's
 * bytes, each L1 line is in its core's L2, each LLC way's sharer mask
 * names exactly the cores that hold the line, and a core with a dirty
 * private copy is its only holder.
 */
class OneCopyProperty
    : public ::testing::TestWithParam<std::tuple<Geometry, unsigned>>
{
  protected:
    static constexpr unsigned kLines = 512;
    static constexpr unsigned kHotLines = 24;
    static constexpr unsigned kSteps = 3000;

    /** Structural invariants; returns "" or the first broken one. */
    static std::string
    checkStructure(CacheHierarchy &hier, unsigned cores)
    {
        // Per line: the cores holding a private copy, and those whose
        // copy is dirty.
        std::map<Addr, std::pair<std::uint32_t, std::uint32_t>>
            holders;
        std::string err;
        for (unsigned c = 0; c < cores && err.empty(); ++c) {
            for (Cache *cache : {&hier.l1(c), &hier.l2(c)}) {
                cache->forEachLine([&](CacheLine &l) {
                    const std::uint32_t bit = std::uint32_t{1} << c;
                    auto &[held, dirty] = holders[l.addr()];
                    held |= bit;
                    dirty |= l.dirty() ? bit : 0;
                    if (!err.empty())
                        return;
                    const CacheLine home = hier.llc().peekLine(l.addr());
                    const std::string where =
                        "core " + std::to_string(c) + " line " +
                        std::to_string(l.addr()) + ": ";
                    if (!home)
                        err = where + "private line not in the LLC";
                    else if (cache == &hier.l1(c) &&
                             !hier.l2(c).peekLine(l.addr()))
                        err = where + "L1 line not in L2";
                    else if (l.home() != home.home() ||
                             l.data() != home.data())
                        err = where + "private way does not read its "
                                      "LLC way's bytes";
                });
            }
        }
        if (!err.empty())
            return err;
        hier.llc().forEachLine([&](CacheLine &l) {
            const auto it = holders.find(l.addr());
            const std::uint32_t held =
                it == holders.end() ? 0 : it->second.first;
            const std::uint32_t mask = hier.llc().sharers(l.home());
            if (err.empty() && mask != held)
                err = "line " + std::to_string(l.addr()) + ": mask " +
                      std::to_string(mask) + " but held by " +
                      std::to_string(held);
        });
        if (!err.empty())
            return err;
        for (const auto &[line, hd] : holders) {
            if (hd.second != 0 && std::popcount(hd.first) > 1)
                return "line " + std::to_string(line) +
                       ": a dirty private copy is not the only one";
        }
        return "";
    }
};

TEST_P(OneCopyProperty, LoadsAndDebugReadsMatchAFlatImage)
{
    const auto &[geo, cores] = GetParam();
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(32);
    cfg.cache.l1Size = kiB(1);
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Size = kiB(4);
    cfg.cache.l2Assoc = 2;
    cfg.cache.llcSize = kiB(16);
    cfg.cache.llcAssoc = geo.llcAssoc;

    std::uint64_t downgrades = 0, back_invalidations = 0, writebacks = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
        NativeController ctrl(nvm, cfg);
        CacheHierarchy hier(cfg);
        hier.setController(&ctrl);
        Rng rng(seed * 7919 + cores);
        std::map<Addr, std::uint64_t> image;
        auto expected = [&](Addr a) {
            const auto it = image.find(a);
            return it == image.end() ? 0 : it->second;
        };
        auto pickLine = [&]() -> Addr {
            // Half the traffic on a few hot lines, so cores share them.
            const unsigned n = rng.nextBounded(2) ? kHotLines : kLines;
            return static_cast<Addr>(rng.nextBounded(n)) * kCacheLineSize;
        };
        auto checkLine = [&](Addr line, bool batch) {
            std::uint64_t words[kWordsPerLine];
            if (batch)
                hier.beginDebugBatch();
            hier.debugRead(line, words, sizeof(words));
            if (batch)
                hier.endDebugBatch();
            for (unsigned w = 0; w < kWordsPerLine; ++w) {
                if (words[w] != expected(line + w * kWordSize))
                    return false;
            }
            return true;
        };

        Tick t = 0;
        for (unsigned step = 0; step < kSteps; ++step) {
            const std::string at = geo.name + std::string(" cores ") +
                                   std::to_string(cores) + " seed " +
                                   std::to_string(seed) + " step " +
                                   std::to_string(step);
            const CoreId core = static_cast<CoreId>(rng.nextBounded(cores));
            const Addr line = pickLine();
            const Addr addr =
                line + rng.nextBounded(kWordsPerLine) * kWordSize;
            const std::uint64_t op = rng.nextBounded(100);
            if (op < 45) {
                std::uint64_t v = ~std::uint64_t{0};
                t = hier.loadWord(core, addr, v, t);
                ASSERT_EQ(v, expected(addr)) << at << ": load";
            } else if (op < 90) {
                const std::uint64_t v = rng.next();
                t = hier.storeWord(core, addr, v, t);
                image[addr] = v;
            } else if (op < 99) {
                // Open or close this core's transaction.
                if (ctrl.inTx(core))
                    t = ctrl.txEnd(core, t);
                else
                    ctrl.txBegin(core, t);
            } else {
                hier.writebackAll(t);
                ++writebacks;
                for (const auto &[a, v] : image)
                    ASSERT_EQ(nvm.peekWord(a), v) << at << ": writeback";
            }
            ASSERT_TRUE(checkLine(line, step % 2 == 0)) << at;
            ASSERT_TRUE(checkLine(pickLine(), step % 2 == 1)) << at;
            const std::string err = checkStructure(hier, cores);
            ASSERT_TRUE(err.empty()) << at << ": " << err;
        }
        for (Addr l = 0; l < kLines * kCacheLineSize; l += kCacheLineSize)
            ASSERT_TRUE(checkLine(l, true)) << "final sweep line " << l;
        downgrades += hier.stats().value("downgrades");
        back_invalidations += hier.stats().value("back_invalidations");
    }
    // The traffic reached the paths that move state between copies.
    EXPECT_GT(downgrades, 0u);
    EXPECT_GT(back_invalidations, 0u);
    EXPECT_GT(writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, OneCopyProperty,
    ::testing::Combine(
        // The crash-check geometry, where four cores' private caches
        // outgrow the LLC, and the same with a direct-mapped LLC.
        ::testing::Values(Geometry{"llc4way", 4}, Geometry{"llc1way", 1}),
        ::testing::Values(2u, 3u, 4u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_cores" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace hoopnvm
