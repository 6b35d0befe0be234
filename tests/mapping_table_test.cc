/**
 * @file
 * Unit tests for the hash-based physical-to-physical mapping table:
 * capacity enforcement (the Fig. 13 knob), insert/update/remove, the
 * whole-line flag, iteration and its visit order.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "hoop/mapping_table.hh"

namespace hoopnvm
{
namespace
{

TEST(MappingTable, CapacityFromBytes)
{
    MappingTable t(kiB(1));
    EXPECT_EQ(t.capacity(), kiB(1) / MappingTable::kEntryBytes);
}

TEST(MappingTable, InsertLookupRemove)
{
    MappingTable t(kiB(1));
    EXPECT_TRUE(t.insert(64, 7, false));
    auto v = t.lookup(64);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->slice, 7u);
    EXPECT_FALSE(v->wholeLine);
    t.remove(64);
    EXPECT_FALSE(t.lookup(64).has_value());
}

TEST(MappingTable, UpdateExistingEntry)
{
    MappingTable t(kiB(1));
    EXPECT_TRUE(t.insert(64, 1, false));
    EXPECT_TRUE(t.insert(64, 2, false));
    EXPECT_EQ(t.lookup(64)->slice, 2u);
    EXPECT_EQ(t.size(), 1u);
}

// The whole-line flag rides with its slice index: insert sets it, an
// update overwrites it either way, and neither touches the index of
// the other entries. The largest storable index keeps both.
TEST(MappingTable, WholeLineFlagIsSetAndOverwritten)
{
    MappingTable t(kiB(1));
    EXPECT_TRUE(t.insert(64, 5, true));
    EXPECT_TRUE(t.insert(128, 6, false));
    EXPECT_EQ(t.lookup(64)->slice, 5u);
    EXPECT_TRUE(t.lookup(64)->wholeLine);
    EXPECT_FALSE(t.lookup(128)->wholeLine);

    EXPECT_TRUE(t.insert(64, 9, false)); // a partial slice replaces it
    EXPECT_EQ(t.lookup(64)->slice, 9u);
    EXPECT_FALSE(t.lookup(64)->wholeLine);
    EXPECT_TRUE(t.insert(128, 10, true)); // a whole one replaces it
    EXPECT_EQ(t.lookup(128)->slice, 10u);
    EXPECT_TRUE(t.lookup(128)->wholeLine);
    EXPECT_EQ(t.size(), 2u);

    const std::uint32_t top = (1u << 31) - 1;
    EXPECT_TRUE(t.insert(192, top, true));
    EXPECT_EQ(t.lookup(192)->slice, top);
    EXPECT_TRUE(t.lookup(192)->wholeLine);
    EXPECT_TRUE(t.insert(192, top, false));
    EXPECT_EQ(t.lookup(192)->slice, top);
    EXPECT_FALSE(t.lookup(192)->wholeLine);

    std::map<Addr, MappingTable::Entry> seen;
    t.forEach([&](Addr line, MappingTable::Entry e) { seen[line] = e; });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[64].slice, 9u);
    EXPECT_FALSE(seen[64].wholeLine);
    EXPECT_EQ(seen[128].slice, 10u);
    EXPECT_TRUE(seen[128].wholeLine);
    EXPECT_EQ(seen[192].slice, top);
}

// At capacity an update still overwrites the flag of a present line.
TEST(MappingTable, FullTableUpdatesTheFlagInPlace)
{
    MappingTable t(MappingTable::kEntryBytes * 2);
    EXPECT_TRUE(t.insert(0, 1, false));
    EXPECT_TRUE(t.insert(64, 2, true));
    ASSERT_TRUE(t.full());
    EXPECT_FALSE(t.insert(128, 3, true));
    EXPECT_TRUE(t.insert(0, 4, true));
    EXPECT_TRUE(t.insert(64, 5, false));
    EXPECT_TRUE(t.lookup(0)->wholeLine);
    EXPECT_EQ(t.lookup(0)->slice, 4u);
    EXPECT_FALSE(t.lookup(64)->wholeLine);
    EXPECT_EQ(t.lookup(64)->slice, 5u);
}

TEST(MappingTable, RejectsInsertWhenFull)
{
    MappingTable t(MappingTable::kEntryBytes * 4);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(t.insert(a * 64, static_cast<std::uint32_t>(a), false));
    EXPECT_TRUE(t.full());
    EXPECT_FALSE(t.insert(1024, 9, false));
    // Updating an existing key still works at capacity.
    EXPECT_TRUE(t.insert(0, 42, false));
    EXPECT_EQ(t.lookup(0)->slice, 42u);
}

TEST(MappingTable, ForEachVisitsAll)
{
    MappingTable t(kiB(1));
    for (Addr a = 0; a < 10; ++a)
        t.insert(a * 64, static_cast<std::uint32_t>(a), a % 2 == 1);
    std::set<Addr> seen;
    t.forEach([&](Addr line, MappingTable::Entry e) {
        seen.insert(line);
        EXPECT_EQ(e.slice, line / 64);
        EXPECT_EQ(e.wholeLine, line / 64 % 2 == 1);
    });
    EXPECT_EQ(seen.size(), 10u);
}

TEST(MappingTable, ClearEmptiesTable)
{
    MappingTable t(kiB(1));
    t.insert(0, 1, false);
    t.insert(64, 2, true);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.lookup(0).has_value());
}

// Construction must not allocate the full modelled capacity: a Fig. 13
// 8 MB sweep builds ~512 Ki-entry tables per System and most runs
// touch a tiny fraction of them.
TEST(MappingTable, LazyAllocationFootprint)
{
    MappingTable t(miB(8));
    EXPECT_EQ(t.capacity(), miB(8) / MappingTable::kEntryBytes);
    EXPECT_LT(t.hostAllocatedBytes(), kiB(4));

    for (Addr a = 0; a < 1000; ++a)
        ASSERT_TRUE(t.insert(a * 64, static_cast<std::uint32_t>(a), true));
    // Growth tracks the live entry count, not the modelled capacity.
    EXPECT_LT(t.hostAllocatedBytes(), kiB(64));
    for (Addr a = 0; a < 1000; ++a)
        EXPECT_EQ(t.lookup(a * 64)->slice, static_cast<std::uint32_t>(a));

    // clear() releases back to the small initial allocation.
    t.clear();
    EXPECT_LT(t.hostAllocatedBytes(), kiB(4));
}

// Open-addressing stress: interleaved insert/remove/lookup against a
// std::map reference model. Catches backward-shift deletion bugs that
// leave entries unreachable or resurrect removed keys.
TEST(MappingTable, RandomOpsMatchReferenceModel)
{
    MappingTable t(MappingTable::kEntryBytes * 256);
    std::map<Addr, std::pair<std::uint32_t, bool>> ref;
    std::uint64_t state = 12345;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int i = 0; i < 20000; ++i) {
        const Addr line = (next() % 512) * 64;
        const auto op = next() % 3;
        if (op == 0) {
            const auto v = static_cast<std::uint32_t>(next());
            const bool whole = next() % 2 == 0;
            const bool want =
                ref.count(line) || ref.size() < t.capacity();
            EXPECT_EQ(t.insert(line, v, whole), want);
            if (want)
                ref[line] = {v, whole};
        } else if (op == 1) {
            t.remove(line);
            ref.erase(line);
        } else {
            const auto got = t.lookup(line);
            const auto it = ref.find(line);
            ASSERT_EQ(got.has_value(), it != ref.end());
            if (got) {
                EXPECT_EQ(got->slice, it->second.first);
                EXPECT_EQ(got->wholeLine, it->second.second);
            }
        }
        ASSERT_EQ(t.size(), ref.size());
    }
    // Final full sweep: every reference entry is reachable.
    std::size_t visited = 0;
    t.forEach([&](Addr line, MappingTable::Entry e) {
        ++visited;
        auto it = ref.find(line);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(e.slice, it->second.first);
        EXPECT_EQ(e.wholeLine, it->second.second);
    });
    EXPECT_EQ(visited, ref.size());
}

// forEach order is simulated behaviour: the emergency drain migrates
// the first committed entry it visits. An 8 KiB table (512 entries,
// Fig. 13's smallest) grows from 64 to 1,024 slots; these FNV-1a
// digests of the (line, slice) visit sequence pin that order after a
// few inserts, at capacity, after removes, and after clear() plus a
// few re-inserts. The key hash, the starting slot count and clear()'s
// return to it each change at least one of them. The whole-line flag
// is not part of the digest: it rides with the entry and moves
// nothing.
TEST(MappingTable, VisitOrderIsPinned)
{
    MappingTable t(kiB(8));
    ASSERT_EQ(t.capacity(), 512u);
    std::uint64_t state = 2024;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    std::vector<Addr> inserted;
    auto insertOne = [&] {
        const Addr line = (next() % 4096) * 64;
        const auto slice = static_cast<std::uint32_t>(next());
        ASSERT_TRUE(t.insert(line, slice, line % 128 == 0));
        inserted.push_back(line);
    };
    auto digest = [&t] {
        std::uint64_t h = 14695981039346656037ull;
        auto mix = [&h](std::uint64_t v, unsigned bytes) {
            for (unsigned i = 0; i < bytes; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        };
        t.forEach([&mix](Addr line, MappingTable::Entry e) {
            mix(line, 8);
            mix(e.slice, 4);
        });
        return h;
    };

    for (int i = 0; i < 10; ++i)
        insertOne();
    EXPECT_EQ(digest(), 0x777fbd77094dfc24ull);

    while (!t.full())
        insertOne();
    EXPECT_EQ(digest(), 0xfc4f52c77d265c89ull);

    for (int i = 0; i < 200; ++i)
        t.remove(inserted[next() % inserted.size()]);
    EXPECT_EQ(digest(), 0xe3aedc4ff3ece787ull);

    t.clear();
    for (int i = 0; i < 10; ++i)
        insertOne();
    EXPECT_EQ(digest(), 0x911f0d285122447aull);
}

// Filling to the modelled capacity keeps working through growth.
TEST(MappingTable, FillToCapacityAndDrain)
{
    MappingTable t(MappingTable::kEntryBytes * 1000);
    for (Addr a = 0; a < 1000; ++a)
        ASSERT_TRUE(t.insert(a * 64, static_cast<std::uint32_t>(a), false));
    EXPECT_TRUE(t.full());
    EXPECT_FALSE(t.insert(1000 * 64, 0, false));
    for (Addr a = 0; a < 1000; ++a) {
        ASSERT_TRUE(t.lookup(a * 64).has_value());
        t.remove(a * 64);
    }
    EXPECT_EQ(t.size(), 0u);
}

} // namespace
} // namespace hoopnvm
