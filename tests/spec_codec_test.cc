/**
 * @file
 * Tests for the shared JSON reader (common/json.hh) and the replayable
 * spec codec (check/spec.hh): escapes decode to what jsonQuote wrote,
 * integer tokens stay exact, errors carry byte offsets, every spec
 * round-trips the values that once lost precision, and out-of-range
 * fields are rejected instead of reaching a System.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "check/crash_schedule.hh"
#include "check/soak.hh"
#include "common/json.hh"

namespace hoopnvm
{
namespace
{

TEST(JsonReader, DecodesEveryEscapeJsonQuoteWrites)
{
    std::string s = "quote\" backslash\\ slash/ utf8 \xc3\xa9 ";
    for (char c = 1; c < 0x20; ++c)
        s += c;
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(jsonQuote(s), &v, &err)) << err;
    EXPECT_EQ(v.kind, JsonValue::Kind::String);
    EXPECT_EQ(v.text, s);

    ASSERT_TRUE(parseJson("\"\\u00e9\\/\"", &v, &err)) << err;
    EXPECT_EQ(v.text, "\xc3\xa9/");
}

TEST(JsonReader, KeepsIntegerTokensExact)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("{\"a\": [18446744073709551615, -0.5e-3, "
                          "9007199254740993]}",
                          &v, &err))
        << err;
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 3u);
    std::uint64_t x = 0;
    EXPECT_TRUE(parseUint(a->items[0].text, &x));
    EXPECT_EQ(x, std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(parseUint(a->items[1].text, &x));
    EXPECT_DOUBLE_EQ(a->items[1].number(), -0.5e-3);
    EXPECT_TRUE(parseUint(a->items[2].text, &x));
    EXPECT_EQ(x, 9007199254740993ull);

    for (const char *bad : {"18446744073709551616", "4O", "-1", "+1", ""})
        EXPECT_FALSE(parseUint(bad, &x)) << bad;
}

TEST(JsonReader, ReportsTheOffsetOfTheFirstError)
{
    const struct
    {
        const char *text;
        const char *where;
    } cases[] = {
        {"{\"a\": 1,}", "at offset 8"}, {"[1 2]", "at offset 3"},
        {"\"open", "at offset 5"},      {"{\"a\": tru}", "at offset 6"},
        {"01", "at offset 1"},          {"{} x", "at offset 3"},
    };
    for (const auto &c : cases) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(c.text, &v, &err)) << c.text;
        EXPECT_NE(err.find(c.where), std::string::npos)
            << c.text << ": " << err;
    }

    // Nesting deeper than the reader recurses is an error, not a crash.
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(std::string(100000, '['), &v, &err));
}

TEST(SpecCodec, NumbersRoundTripExactly)
{
    std::string err;

    CrashSchedule sched;
    sched.seed = (std::uint64_t{1} << 53) + 1;
    sched.runtimeFaultProb = 0.0123456789;
    sched.steps.push_back({CrashPointKind::GcStep, 17, 3});
    CrashSchedule sched2;
    ASSERT_TRUE(CrashSchedule::fromJson(sched.toJson(), &sched2, &err))
        << err;
    EXPECT_EQ(sched2.seed, sched.seed);
    EXPECT_EQ(sched2.runtimeFaultProb, sched.runtimeFaultProb);
    EXPECT_EQ(sched2.toJson(), sched.toJson());

    SoakSpec soak;
    soak.seed = 12345678901234567891ull;
    soak.faultProb = 1e-7;
    SoakSpec soak2;
    ASSERT_TRUE(SoakSpec::fromJson(soak.toJson(), &soak2, &err)) << err;
    EXPECT_EQ(soak2.seed, soak.seed);
    EXPECT_EQ(soak2.faultProb, soak.faultProb);
    EXPECT_EQ(soak2.toJson(), soak.toJson());
}

TEST(SpecCodec, RejectsMalformedAndOutOfRangeFields)
{
    std::string err;
    for (const char *text :
         {"{\"num_cores\": -1}", "{\"num_cores\": 0}",
          "{\"num_cores\": 33}", "{\"seed\": 1.5}", "{\"seed\": 1e3}",
          "{\"workload\": \"bogus\"}", "{\"torn_writes\": 1}",
          "{\"runtime_fault_prob\": -0.1}",
          "{\"steps\": [{\"countdown\": -2}]}"}) {
        CrashSchedule s;
        EXPECT_FALSE(CrashSchedule::fromJson(text, &s, &err)) << text;
        EXPECT_NE(err.find("offset"), std::string::npos) << err;
    }
    SoakSpec soak;
    EXPECT_FALSE(SoakSpec::fromJson("{\"num_cores\": 40}", &soak, &err));
}

} // namespace
} // namespace hoopnvm
