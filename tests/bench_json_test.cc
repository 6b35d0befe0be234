/**
 * @file
 * Unit tests for the bench JSON string escaper. RFC 8259 requires
 * quotation mark, reverse solidus and ALL control characters below
 * 0x20 to be escaped — the bug this guards against escaped only \n,
 * so a label containing e.g. \x01 produced unparseable JSON.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.hh"

namespace hoopnvm
{
namespace
{

TEST(JsonEscape, PlainAsciiPassesThrough)
{
    const std::string s = "hoop/vector 64B [p50=1.5]";
    EXPECT_EQ(jsonEscape(s), s);
}

TEST(JsonEscape, QuoteAndBackslash)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, ShorthandControlEscapes)
{
    EXPECT_EQ(jsonEscape("\b"), "\\b");
    EXPECT_EQ(jsonEscape("\f"), "\\f");
    EXPECT_EQ(jsonEscape("\n"), "\\n");
    EXPECT_EQ(jsonEscape("\r"), "\\r");
    EXPECT_EQ(jsonEscape("\t"), "\\t");
    EXPECT_EQ(jsonEscape("line1\nline2"), "line1\\nline2");
}

TEST(JsonEscape, EveryControlCharBelow0x20IsEscaped)
{
    // The regression: \x01, \x1f etc. used to pass through raw.
    for (int c = 0x00; c < 0x20; ++c) {
        const std::string in(1, static_cast<char>(c));
        const std::string out = jsonEscape(in);
        ASSERT_GE(out.size(), 2u) << "char " << c << " not escaped";
        EXPECT_EQ(out[0], '\\') << "char " << c;
        for (char o : out)
            EXPECT_GE(static_cast<unsigned char>(o), 0x20u)
                << "escape of char " << c
                << " still contains a control byte";
    }
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    std::string embedded = "a";
    embedded += '\x01';
    embedded += 'b';
    EXPECT_EQ(jsonEscape(embedded), "a\\u0001b");
    EXPECT_EQ(jsonEscape(std::string("\x00", 1)), "\\u0000");
}

TEST(JsonEscape, HighBytesPassThroughUnchanged)
{
    // 0x7f and UTF-8 continuation bytes are legal raw in JSON strings.
    const std::string s = "\x7f\xc3\xa9"; // DEL + e-acute in UTF-8
    EXPECT_EQ(jsonEscape(s), s);
}

} // namespace
} // namespace hoopnvm
