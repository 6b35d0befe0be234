/**
 * @file
 * Unit tests for the named-statistics registry, in particular the
 * reference-stability guarantee the hot-path components rely on:
 * Counter& obtained once at construction must stay valid (and alias
 * the named entry) while other counters are created afterwards.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats/stat_set.hh"

namespace hoopnvm
{
namespace
{

/** Name of the i-th filler counter ("c<i>"). */
std::string
fillerName(int i)
{
    std::string name = "c";
    name += std::to_string(i);
    return name;
}

TEST(StatSet, CounterStartsAtZeroAndAccumulates)
{
    StatSet s("test");
    Counter &c = s.counter("events");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(s.value("events"), 42u);
}

// The hot-path pattern: components resolve Counter& once in their
// constructor and bump the reference ever after. Creating many other
// counters afterwards must not invalidate or re-seat the reference.
TEST(StatSet, ReferencesSurviveLaterInsertions)
{
    StatSet s("test");
    Counter &early = s.counter("early");
    ++early;

    std::vector<Counter *> later;
    for (int i = 0; i < 1000; ++i)
        later.push_back(&s.counter(fillerName(i)));

    // The early reference still aliases the registry entry.
    ++early;
    EXPECT_EQ(s.value("early"), 2u);
    EXPECT_EQ(&s.counter("early"), &early);

    // And the later pointers also stayed put.
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(&s.counter(fillerName(i)), later[i]);
}

// Bumps through a cached reference and bumps through by-name lookup
// must aggregate into the same counter.
TEST(StatSet, CachedReferenceAggregatesWithNamedLookup)
{
    StatSet s("test");
    Counter &cached = s.counter("mixed");
    ++cached;
    ++s.counter("mixed");
    cached += 10;
    s.counter("mixed") += 100;
    EXPECT_EQ(s.value("mixed"), 112u);
}

TEST(StatSet, ResetAllZeroesButKeepsReferencesValid)
{
    StatSet s("test");
    Counter &c = s.counter("events");
    c += 7;
    s.resetAll();
    EXPECT_EQ(s.value("events"), 0u);
    ++c; // reference still valid and still aliased
    EXPECT_EQ(s.value("events"), 1u);
}

TEST(StatSet, DumpPrefixesEveryCounter)
{
    StatSet s("unit");
    s.counter("a") += 1;
    s.counter("b") += 2;
    const std::string d = s.dump();
    EXPECT_NE(d.find("unit.a"), std::string::npos);
    EXPECT_NE(d.find("unit.b"), std::string::npos);
}

TEST(StatSet, ValueOfUnknownCounterIsZero)
{
    StatSet s("test");
    EXPECT_EQ(s.value("never_created"), 0u);
}

} // namespace
} // namespace hoopnvm
