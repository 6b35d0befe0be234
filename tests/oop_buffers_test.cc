/**
 * @file
 * Unit tests for the OOP data buffer (word packing and same-word
 * combining, §III-C) and the GC eviction buffer (bounded FIFO).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "hoop/eviction_buffer.hh"
#include "hoop/oop_data_buffer.hh"

namespace hoopnvm
{
namespace
{

TEST(OopDataBuffer, FillsAfterEightWords)
{
    OopDataBuffer buf(2, /*packing=*/true);
    for (unsigned i = 0; i < 7; ++i)
        EXPECT_FALSE(buf.addWord(0, 8 * i, i));
    EXPECT_TRUE(buf.addWord(0, 56, 7));
    const PendingSlice p = buf.take(0);
    EXPECT_EQ(p.count, 8);
    EXPECT_EQ(p.addrs[3], 24u);
    EXPECT_EQ(p.words[3], 3u);
    EXPECT_FALSE(buf.hasPending(0));
}

TEST(OopDataBuffer, CombinesSameWordUpdates)
{
    OopDataBuffer buf(1, true);
    EXPECT_FALSE(buf.addWord(0, 64, 1));
    EXPECT_FALSE(buf.addWord(0, 64, 2)); // combined, not a new slot
    EXPECT_FALSE(buf.addWord(0, 64, 3));
    EXPECT_EQ(buf.combinedWords(), 2u);
    const PendingSlice p = buf.take(0);
    EXPECT_EQ(p.count, 1);
    EXPECT_EQ(p.words[0], 3u); // last value wins
}

TEST(OopDataBuffer, CoresAreIndependent)
{
    OopDataBuffer buf(2, true);
    buf.addWord(0, 0, 10);
    buf.addWord(1, 8, 20);
    EXPECT_TRUE(buf.hasPending(0));
    EXPECT_TRUE(buf.hasPending(1));
    const PendingSlice p0 = buf.take(0);
    EXPECT_EQ(p0.words[0], 10u);
    EXPECT_TRUE(buf.hasPending(1));
}

TEST(OopDataBuffer, NoPackingFlushesEveryWord)
{
    OopDataBuffer buf(1, /*packing=*/false);
    EXPECT_TRUE(buf.addWord(0, 0, 1)); // immediately full
    const PendingSlice p = buf.take(0);
    EXPECT_EQ(p.count, 1);
    // Without packing even a repeated word is not combined.
    EXPECT_TRUE(buf.addWord(0, 0, 2));
    EXPECT_EQ(buf.combinedWords(), 0u);
}

TEST(OopDataBuffer, ClearDropsState)
{
    OopDataBuffer buf(2, true);
    buf.addWord(0, 0, 1);
    buf.addWord(1, 8, 2);
    buf.clear(0);
    EXPECT_FALSE(buf.hasPending(0));
    EXPECT_TRUE(buf.hasPending(1));
    buf.clearAll();
    EXPECT_FALSE(buf.hasPending(1));
}

TEST(EvictionBuffer, PutGetRoundTrip)
{
    EvictionBuffer eb(kiB(1));
    std::uint8_t line[kCacheLineSize];
    std::memset(line, 0x5a, sizeof(line));
    eb.put(128, line);
    std::uint8_t out[kCacheLineSize] = {};
    ASSERT_TRUE(eb.get(128, out));
    EXPECT_EQ(std::memcmp(line, out, kCacheLineSize), 0);
    EXPECT_FALSE(eb.get(64, out));
}

TEST(EvictionBuffer, RefreshOverwritesInPlace)
{
    EvictionBuffer eb(kiB(1));
    std::uint8_t a[kCacheLineSize], b[kCacheLineSize];
    std::memset(a, 1, sizeof(a));
    std::memset(b, 2, sizeof(b));
    eb.put(0, a);
    eb.put(0, b);
    EXPECT_EQ(eb.size(), 1u);
    std::uint8_t out[kCacheLineSize];
    ASSERT_TRUE(eb.get(0, out));
    EXPECT_EQ(out[0], 2);
}

TEST(EvictionBuffer, FifoReplacementWhenFull)
{
    // Capacity = 1024 / 72 = 14 entries.
    EvictionBuffer eb(kiB(1));
    const std::size_t cap = eb.capacity();
    std::uint8_t line[kCacheLineSize] = {};
    for (std::size_t i = 0; i <= cap; ++i)
        eb.put(64 * i, line);
    std::uint8_t out[kCacheLineSize];
    EXPECT_FALSE(eb.get(0, out)); // oldest evicted
    EXPECT_TRUE(eb.get(64 * cap, out));
    EXPECT_EQ(eb.size(), cap);
}

TEST(EvictionBuffer, InvalidateAndClear)
{
    EvictionBuffer eb(kiB(1));
    std::uint8_t line[kCacheLineSize] = {};
    eb.put(0, line);
    eb.put(64, line);
    eb.invalidate(0);
    std::uint8_t out[kCacheLineSize];
    EXPECT_FALSE(eb.get(0, out));
    EXPECT_TRUE(eb.get(64, out));
    eb.clear();
    EXPECT_FALSE(eb.get(64, out));
    EXPECT_EQ(eb.size(), 0u);
}

} // namespace
} // namespace hoopnvm
