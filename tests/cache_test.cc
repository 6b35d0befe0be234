/**
 * @file
 * Unit tests for the set-associative cache: hit/miss behaviour, LRU
 * replacement, dirty/persistent/word-mask state, and invalidation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
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

/** A line with nothing newer than home. */
constexpr CacheLineMeta kClean{.txId = kInvalidTxId, .lastWriter = 0,
                               .wordMask = 0, .dirty = false,
                               .persistent = false};

/** A line dirtied outside any transaction. */
constexpr CacheLineMeta kDirty{.txId = kInvalidTxId, .lastWriter = 0,
                               .wordMask = 0, .dirty = true,
                               .persistent = false};

TEST(Cache, MissThenHit)
{
    Cache c("t", kiB(4), 4, nsToTicks(2));
    EXPECT_FALSE(c.probe(0));
    auto d = lineData(1);
    c.insert(0, d.data(), kClean);
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
    EXPECT_EQ(Cache("l1", p.l1Size, p.l1Assoc, kL1Latency).numSets(),
              128u);
    EXPECT_EQ(Cache("l2", p.l2Size, p.l2Assoc, kL2Latency).numSets(),
              512u);
    EXPECT_EQ(Cache("llc", p.llcSize, p.llcAssoc, kLlcLatency).numSets(),
              2048u);
}

TEST(CacheDeathTest, SetCountMustBeAPowerOfTwo)
{
    // 384 B of 2-way 64 B lines is 3 sets. The set index is a mask of
    // the hashed line number, so the constructor refuses the geometry.
    EXPECT_DEATH(Cache("t", 384, 2, 0), "not a power of two");
}

TEST(CacheDeathTest, AssociativityMustBeAPowerOfTwoUpTo16)
{
    // A set's recency word lists up to 16 ways, four bits each.
    EXPECT_DEATH(Cache("t", 3 * 64, 3, 0), "not a power of two up to 16");
    EXPECT_DEATH(Cache("t", 32 * 64, 32, 0), "not a power of two up to 16");
}

/**
 * Per-way LRU stamps, the rule the per-set recency word replaced:
 * every touch stamps a way with a rising clock, an invalid way has
 * stamp 0, and the victim is the first way with the lowest stamp.
 */
struct StampLru
{
    explicit StampLru(unsigned ways) : addr(ways, kInvalidAddr), stamp(ways) {}

    int
    find(Addr a) const
    {
        for (unsigned w = 0; w < addr.size(); ++w) {
            if (addr[w] == a)
                return static_cast<int>(w);
        }
        return -1;
    }

    unsigned
    victim(Addr a) const
    {
        unsigned v = 0;
        for (unsigned w = 0; w < addr.size(); ++w) {
            if (addr[w] == a)
                return w;
            if (stamp[w] < stamp[v])
                v = w;
        }
        return v;
    }

    std::vector<Addr> addr;
    std::vector<std::uint64_t> stamp;
    std::uint64_t clock = 0;
};

TEST(Cache, RecencyWordPicksTheStampRulesVictims)
{
    // One set of each legal width, driven by random inserts, probes,
    // hits and invalidations over twice as many lines as it holds.
    // The way of every insert and victim must be the stamp rule's.
    Rng rng(29);
    auto d = lineData(0);
    for (unsigned ways = 1; ways <= Cache::kMaxAssoc; ways *= 2) {
        Cache c("t", ways * kCacheLineSize, ways, 0);
        StampLru ref(ways);
        for (unsigned step = 0; step < 20000; ++step) {
            const Addr a = rng.nextBounded(2 * ways) * kCacheLineSize;
            const int held = ref.find(a);
            switch (rng.nextBounded(4)) {
            case 0: { // insert
                const unsigned w = ref.victim(a);
                CacheVictim v = c.insert(a, d.data(), kClean);
                const bool evicts =
                    ref.addr[w] != kInvalidAddr && ref.addr[w] != a;
                ASSERT_EQ(v.valid, evicts) << ways << " " << step;
                if (evicts) {
                    ASSERT_EQ(v.addr, ref.addr[w]) << ways << " " << step;
                }
                ASSERT_EQ(c.peekLine(a).home(), w) << ways << " " << step;
                ref.addr[w] = a;
                ref.stamp[w] = ++ref.clock;
                break;
            }
            case 1: // probe
                ASSERT_EQ(static_cast<bool>(c.probe(a)), held >= 0);
                if (held >= 0)
                    ref.stamp[held] = ++ref.clock;
                break;
            case 2: // hit without a set scan
                if (held >= 0) {
                    c.touchHit(c.peekLine(a));
                    ref.stamp[held] = ++ref.clock;
                }
                break;
            default: // invalidate
                c.invalidate(c.peekLine(a));
                if (held >= 0) {
                    ref.addr[held] = kInvalidAddr;
                    ref.stamp[held] = 0;
                }
                break;
            }
        }
    }
}

TEST(Cache, LruEvictsOldest)
{
    // Single-set cache: capacity = 2 lines.
    Cache c("t", 128, 2, 0);
    auto d = lineData(0);
    c.insert(0, d.data(), kClean);
    c.insert(64, d.data(), kClean);
    c.probe(0); // touch 0 so 64 is LRU
    CacheVictim v =
        c.insert(128, d.data(), kClean);
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
    c.insert(0, d.data(),
             {.txId = 99, .lastWriter = 3, .wordMask = 0x0f,
              .dirty = true, .persistent = true});
    c.insert(64, d.data(), kClean);
    c.probe(64);
    CacheVictim v =
        c.insert(128, d.data(), kClean);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u);
    EXPECT_TRUE(v.state.dirty);
    EXPECT_TRUE(v.state.persistent);
    EXPECT_EQ(v.state.lastWriter, 3u);
    EXPECT_EQ(v.state.txId, 99u);
    EXPECT_EQ(v.state.wordMask, 0x0f);
    EXPECT_EQ(v.data[0], 7);
}

TEST(Cache, ReinsertMergesFlags)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    c.insert(0, d.data(),
             {.txId = 5, .lastWriter = 1, .wordMask = 0x01, .dirty = true,
              .persistent = false});
    auto d2 = lineData(2);
    c.insert(0, d2.data(),
             {.txId = 6, .lastWriter = 2, .wordMask = 0x02,
              .dirty = false, .persistent = true});
    CacheLine l = c.probe(0);
    ASSERT_TRUE(l);
    EXPECT_TRUE(l.dirty());      // sticky
    EXPECT_TRUE(l.persistent()); // sticky
    EXPECT_EQ(l.wordMask(), 0x03);
    // A clean reinsert keeps the dirty writer and transaction.
    EXPECT_EQ(l.lastWriter(), 1u);
    EXPECT_EQ(l.txId(), 5u);
    EXPECT_EQ(l.data()[0], 2); // newest data wins
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    c.insert(0, d.data(),
             {.txId = 1, .lastWriter = 0, .wordMask = 0xff, .dirty = true,
              .persistent = true});
    c.invalidate(c.peekLine(0));
    EXPECT_FALSE(c.probe(0));
    c.invalidate(c.peekLine(64)); // an empty view is a no-op
}

TEST(Cache, InvalidateAll)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    for (Addr a = 0; a < kiB(2); a += kCacheLineSize)
        c.insert(a, d.data(), kDirty);
    c.invalidateAll();
    for (Addr a = 0; a < kiB(2); a += kCacheLineSize)
        EXPECT_FALSE(c.peekLine(a));
}

TEST(Cache, PeekDoesNotTouchLru)
{
    Cache c("t", 128, 2, 0);
    auto d = lineData(0);
    c.insert(0, d.data(), kClean);
    c.insert(64, d.data(), kClean);
    // peek must not refresh line 0's LRU position.
    EXPECT_TRUE(c.peekLine(0));
    CacheVictim v =
        c.insert(128, d.data(), kClean);
    EXPECT_EQ(v.addr, 0u);
}

TEST(Cache, ForEachLineVisitsValidOnly)
{
    Cache c("t", kiB(4), 4, 0);
    auto d = lineData(1);
    c.insert(0, d.data(), kDirty);
    c.insert(64, d.data(), kClean);
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
