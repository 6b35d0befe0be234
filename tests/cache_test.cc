/**
 * @file
 * Unit tests for the set-associative cache: hit/miss behaviour, LRU
 * replacement, dirty/persistent/word-mask state, and invalidation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/cache.hh"
#include "sim/system_config.hh"

namespace hoopnvm
{
namespace
{

std::array<std::uint8_t, kCacheLineSize>
lineData(std::uint8_t fill)
{
    std::array<std::uint8_t, kCacheLineSize> d;
    d.fill(fill);
    return d;
}

TEST(Cache, MissThenHit)
{
    Cache c("t", kiB(4), 4, nsToTicks(2));
    EXPECT_FALSE(c.probe(0));
    auto d = lineData(1);
    c.insert(0, d.data(), false, false, 0, kInvalidTxId);
    CacheLine l = c.probe(0);
    ASSERT_TRUE(l);
    EXPECT_EQ(l.data()[0], 1);
    EXPECT_EQ(c.stats().value("hits"), 1u);
    EXPECT_EQ(c.stats().value("misses"), 1u);
}

TEST(Cache, GeometryChecks)
{
    Cache c("t", kiB(32), 4, 0);
    EXPECT_EQ(c.numSets(), 32u * 1024 / (4 * 64));
    EXPECT_EQ(c.associativity(), 4u);

    // SystemConfig's default (Table II) levels all have power-of-two
    // set counts, as the masked set index requires.
    const CacheParams p;
    EXPECT_EQ(Cache("l1", p.l1Size, p.l1Assoc, p.l1Latency).numSets(),
              128u);
    EXPECT_EQ(Cache("l2", p.l2Size, p.l2Assoc, p.l2Latency).numSets(),
              512u);
    EXPECT_EQ(
        Cache("llc", p.llcSize, p.llcAssoc, p.llcLatency).numSets(),
        2048u);
}

TEST(CacheDeathTest, SetCountMustBeAPowerOfTwo)
{
    // 384 B of 2-way 64 B lines is 3 sets. The set index is a mask of
    // the hashed line number, so the constructor refuses the geometry.
    EXPECT_DEATH(Cache("t", 384, 2, 0), "not a power of two");
}

TEST(Cache, LruEvictsOldest)
{
    // Single-set cache: capacity = 2 lines.
    Cache c("t", 128, 2, 0);
    auto d = lineData(0);
    c.insert(0, d.data(), false, false, 0, kInvalidTxId);
    c.insert(64, d.data(), false, false, 0, kInvalidTxId);
    c.probe(0); // touch 0 so 64 is LRU
    CacheVictim v =
        c.insert(128, d.data(), false, false, 0, kInvalidTxId);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 64u);
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(128));
    EXPECT_FALSE(c.probe(64));
}

TEST(Cache, VictimCarriesState)
{
    Cache c("t", 128, 2, 0);
    auto d = lineData(7);
    c.insert(0, d.data(), true, true, 3, 99, 0x0f);
    c.insert(64, d.data(), false, false, 0, kInvalidTxId);
    c.probe(64);
    CacheVictim v =
        c.insert(128, d.data(), false, false, 0, kInvalidTxId);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u);
    EXPECT_TRUE(v.dirty);
    EXPECT_TRUE(v.persistent);
    EXPECT_EQ(v.lastWriter, 3u);
    EXPECT_EQ(v.txId, 99u);
    EXPECT_EQ(v.wordMask, 0x0f);
    EXPECT_EQ(v.data[0], 7);
}

TEST(Cache, ReinsertMergesFlags)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    c.insert(0, d.data(), true, false, 1, 5, 0x01);
    auto d2 = lineData(2);
    c.insert(0, d2.data(), false, true, 2, 6, 0x02);
    CacheLine l = c.probe(0);
    ASSERT_TRUE(l);
    EXPECT_TRUE(l.dirty());      // sticky
    EXPECT_TRUE(l.persistent()); // sticky
    EXPECT_EQ(l.wordMask(), 0x03);
    EXPECT_EQ(l.data()[0], 2); // newest data wins
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    c.insert(0, d.data(), true, true, 0, 1, 0xff);
    c.invalidate(0);
    EXPECT_FALSE(c.probe(0));
    c.invalidate(64); // no-op on absent lines
}

TEST(Cache, InvalidateAll)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    for (Addr a = 0; a < kiB(2); a += kCacheLineSize)
        c.insert(a, d.data(), true, false, 0, kInvalidTxId);
    c.invalidateAll();
    for (Addr a = 0; a < kiB(2); a += kCacheLineSize)
        EXPECT_FALSE(c.peekLine(a));
}

TEST(Cache, PeekDoesNotTouchLru)
{
    Cache c("t", 128, 2, 0);
    auto d = lineData(0);
    c.insert(0, d.data(), false, false, 0, kInvalidTxId);
    c.insert(64, d.data(), false, false, 0, kInvalidTxId);
    // peek must not refresh line 0's LRU position.
    EXPECT_TRUE(c.peekLine(0));
    CacheVictim v =
        c.insert(128, d.data(), false, false, 0, kInvalidTxId);
    EXPECT_EQ(v.addr, 0u);
}

TEST(Cache, ForEachLineVisitsValidOnly)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    c.insert(0, d.data(), true, false, 0, kInvalidTxId);
    c.insert(64, d.data(), false, false, 0, kInvalidTxId);
    unsigned count = 0, dirty = 0;
    c.forEachLine([&](CacheLine &l) {
        ++count;
        dirty += l.dirty() ? 1 : 0;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(dirty, 1u);
}

} // namespace
} // namespace hoopnvm
