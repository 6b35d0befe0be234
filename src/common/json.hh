/**
 * @file
 * Shared JSON string escaping, number formatting and the one JSON
 * reader in the tree.
 *
 * Every place that emits a runtime string into a JSON document must
 * route it through jsonEscape/jsonQuote (the PR 5 bench bug class:
 * workload names or fault descriptions containing quotes, backslashes
 * or control characters silently corrupt the report). hoop_lint's
 * raw-json rule enforces this; the helpers live in src/common so both
 * the library (spec/trace emitters) and the bench harness can
 * link them.
 *
 * The reader parses a whole document into a small JsonValue tree. It
 * decodes every escape jsonEscape writes, keeps each number's token
 * exactly as written (so a 64-bit seed survives a round trip; see
 * parseUint), and reports the byte offset of the first error, so a
 * hand-edited reproducer fails loudly instead of silently defaulting
 * fields.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hoopnvm
{

/** Escape s for inclusion inside a JSON string literal (RFC 8259):
 *  backslash, double quote, and all control characters below 0x20. */
std::string jsonEscape(const std::string &s);

/** jsonEscape(s) wrapped in double quotes — a complete JSON string. */
std::string jsonQuote(const std::string &s);

/** Shortest decimal text that reads back as exactly @p v. */
std::string jsonNumber(double v);

/** One parsed JSON value. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;

    /** A string's decoded contents, or a number's token as written. */
    std::string text;

    /** Array elements. */
    std::vector<JsonValue> items;

    /** Object members in document order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Byte offset of the value in its document. */
    std::size_t offset = 0;

    /** The first member named @p key, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** A number's value (nearest double); 0 for any other kind. */
    double number() const;
};

/**
 * Parse @p text as exactly one JSON document.
 * @return false with @p err set to "<what> at offset <n>" on the first
 * error.
 */
bool parseJson(const std::string &text, JsonValue *out, std::string *err);

/** Parse all of @p s as a decimal integer in [0, 2^64). */
bool parseUint(std::string_view s, std::uint64_t *out);

/** Parse all of @p s as a finite number. */
bool parseReal(std::string_view s, double *out);

} // namespace hoopnvm
