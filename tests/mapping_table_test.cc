/**
 * @file
 * Unit tests for the hash-based physical-to-physical mapping table:
 * capacity enforcement (the Fig. 13 knob), insert/update/remove,
 * iteration and its visit order.
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
    EXPECT_TRUE(t.insert(64, 7));
    auto v = t.lookup(64);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7u);
    t.remove(64);
    EXPECT_FALSE(t.lookup(64).has_value());
}

TEST(MappingTable, UpdateExistingEntry)
{
    MappingTable t(kiB(1));
    EXPECT_TRUE(t.insert(64, 1));
    EXPECT_TRUE(t.insert(64, 2));
    EXPECT_EQ(*t.lookup(64), 2u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(MappingTable, RejectsInsertWhenFull)
{
    MappingTable t(MappingTable::kEntryBytes * 4);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(t.insert(a * 64, static_cast<std::uint32_t>(a)));
    EXPECT_TRUE(t.full());
    EXPECT_FALSE(t.insert(1024, 9));
    // Updating an existing key still works at capacity.
    EXPECT_TRUE(t.insert(0, 42));
    EXPECT_EQ(*t.lookup(0), 42u);
}

TEST(MappingTable, ForEachVisitsAll)
{
    MappingTable t(kiB(1));
    for (Addr a = 0; a < 10; ++a)
        t.insert(a * 64, static_cast<std::uint32_t>(a));
    std::set<Addr> seen;
    t.forEach([&](Addr line, std::uint32_t idx) {
        seen.insert(line);
        EXPECT_EQ(idx, line / 64);
    });
    EXPECT_EQ(seen.size(), 10u);
}

TEST(MappingTable, ClearEmptiesTable)
{
    MappingTable t(kiB(1));
    t.insert(0, 1);
    t.insert(64, 2);
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
        ASSERT_TRUE(t.insert(a * 64, static_cast<std::uint32_t>(a)));
    // Growth tracks the live entry count, not the modelled capacity.
    EXPECT_LT(t.hostAllocatedBytes(), kiB(64));
    for (Addr a = 0; a < 1000; ++a)
        EXPECT_EQ(*t.lookup(a * 64), static_cast<std::uint32_t>(a));

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
    std::map<Addr, std::uint32_t> ref;
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
            const bool want =
                ref.count(line) || ref.size() < t.capacity();
            EXPECT_EQ(t.insert(line, v), want);
            if (want)
                ref[line] = v;
        } else if (op == 1) {
            t.remove(line);
            ref.erase(line);
        } else {
            const auto got = t.lookup(line);
            const auto it = ref.find(line);
            ASSERT_EQ(got.has_value(), it != ref.end());
            if (got) {
                EXPECT_EQ(*got, it->second);
            }
        }
        ASSERT_EQ(t.size(), ref.size());
    }
    // Final full sweep: every reference entry is reachable.
    std::size_t visited = 0;
    t.forEach([&](Addr line, std::uint32_t idx) {
        ++visited;
        auto it = ref.find(line);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(idx, it->second);
    });
    EXPECT_EQ(visited, ref.size());
}

// forEach order is simulated behaviour: the emergency drain migrates
// the first committed entry it visits. An 8 KiB table (512 entries,
// Fig. 13's smallest) grows from 64 to 1,024 slots; these FNV-1a
// digests of the (line, slice) visit sequence pin that order after a
// few inserts, at capacity, after removes, and after clear() plus a
// few re-inserts. The key hash, the starting slot count and clear()'s
// return to it each change at least one of them.
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
        ASSERT_TRUE(t.insert(line, static_cast<std::uint32_t>(next())));
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
        t.forEach([&mix](Addr line, std::uint32_t slice) {
            mix(line, 8);
            mix(slice, 4);
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
        ASSERT_TRUE(t.insert(a * 64, static_cast<std::uint32_t>(a)));
    EXPECT_TRUE(t.full());
    EXPECT_FALSE(t.insert(1000 * 64, 0));
    for (Addr a = 0; a < 1000; ++a) {
        ASSERT_TRUE(t.lookup(a * 64).has_value());
        t.remove(a * 64);
    }
    EXPECT_EQ(t.size(), 0u);
}

} // namespace
} // namespace hoopnvm
