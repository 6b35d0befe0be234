/**
 * @file
 * Shared JSON escaping, number formatting and reader (see json.hh).
 */
#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace hoopnvm
{

namespace
{

// The single-character escapes: kEscaped[i] is written as a backslash
// and kEscapeNames[i]. '/' is only ever read ("\/"), never written.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t/";
constexpr std::string_view kEscapeNames = "\"\\bfnrt/";

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const std::size_t k = c == '/' ? kEscaped.npos : kEscaped.find(c);
        if (k != kEscaped.npos) {
            out += '\\';
            out += kEscapeNames[k];
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

bool
parseUint(std::string_view s, std::uint64_t *out)
{
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v);
    if (s.empty() || r.ec != std::errc() || r.ptr != end)
        return false;
    *out = v;
    return true;
}

bool
parseReal(std::string_view s, double *out)
{
    double v = 0;
    const char *end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v);
    if (s.empty() || r.ec != std::errc() || r.ptr != end ||
        !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

double
JsonValue::number() const
{
    double v = 0;
    return kind == Kind::Number && parseReal(text, &v) ? v : 0.0;
}

namespace
{

/** Recursive-descent reader over one document. */
class Reader
{
  public:
    explicit Reader(const std::string &s) : s_(s) {}

    bool
    document(JsonValue *out)
    {
        if (!value(out, 0))
            return false;
        skipWs();
        return pos_ == s_.size() || fail("trailing characters");
    }

    const std::string &error() const { return err_; }

  private:
    /** Deeper nesting is rejected rather than recursed into. */
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *what)
    {
        err_ = std::string(what) + " at offset " + std::to_string(pos_);
        return false;
    }

    bool atEnd() const { return pos_ >= s_.size(); }

    void
    skipWs()
    {
        while (!atEnd() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                            s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (atEnd() || s_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    value(JsonValue *out, int depth)
    {
        skipWs();
        out->offset = pos_;
        if (atEnd())
            return fail("unexpected end of input");
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        switch (s_[pos_]) {
          case '{':
            return object(out, depth);
          case '[':
            return array(out, depth);
          case '"':
            out->kind = JsonValue::Kind::String;
            return string(&out->text);
          case 't':
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return word("true");
          case 'f':
            out->kind = JsonValue::Kind::Bool;
            return word("false");
          case 'n':
            return word("null");
          default:
            return number(out);
        }
    }

    bool
    word(const char *w)
    {
        const std::string_view want(w);
        if (s_.compare(pos_, want.size(), want) != 0)
            return fail("invalid literal");
        pos_ += want.size();
        return true;
    }

    std::size_t
    digits()
    {
        const std::size_t start = pos_;
        while (!atEnd() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        return pos_ - start;
    }

    bool
    number(JsonValue *out)
    {
        const std::size_t start = pos_;
        if (s_[pos_] == '-')
            ++pos_;
        if (!atEnd() && s_[pos_] == '0')
            ++pos_;
        else if (digits() == 0)
            return fail("expected a value");
        if (!atEnd() && s_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                return fail("invalid number");
        }
        if (!atEnd() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (!atEnd() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                return fail("invalid number");
        }
        out->kind = JsonValue::Kind::Number;
        out->text = s_.substr(start, pos_ - start);
        return true;
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(unsigned cp, std::string *out)
    {
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    bool
    string(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (!atEnd() && s_[pos_] != '"') {
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c != '\\') {
                out->push_back(c);
                ++pos_;
                continue;
            }
            if (++pos_ >= s_.size())
                break;
            const char e = s_[pos_++];
            if (const auto k = kEscapeNames.find(e); k != kEscapeNames.npos) {
                out->push_back(kEscaped[k]);
                continue;
            }
            unsigned cp = 0;
            const char *hex = s_.data() + pos_;
            const auto r = std::from_chars(
                hex, hex + std::min<std::size_t>(4, s_.size() - pos_), cp,
                16);
            if (e != 'u' || r.ec != std::errc() || r.ptr != hex + 4) {
                --pos_;
                return fail("invalid escape");
            }
            if (cp >= 0xd800 && cp < 0xe000)
                return fail("unsupported surrogate escape");
            pos_ += 4;
            appendUtf8(cp, out);
        }
        if (atEnd())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    array(JsonValue *out, int depth)
    {
        ++pos_;
        out->kind = JsonValue::Kind::Array;
        if (eat(']'))
            return true;
        do {
            out->items.emplace_back();
            if (!value(&out->items.back(), depth + 1))
                return false;
        } while (eat(','));
        return eat(']') || fail("expected ',' or ']'");
    }

    bool
    object(JsonValue *out, int depth)
    {
        ++pos_;
        out->kind = JsonValue::Kind::Object;
        if (eat('}'))
            return true;
        do {
            skipWs();
            if (atEnd() || s_[pos_] != '"')
                return fail("expected a string key");
            std::string key;
            if (!string(&key))
                return false;
            if (!eat(':'))
                return fail("expected ':'");
            out->members.emplace_back(std::move(key), JsonValue{});
            if (!value(&out->members.back().second, depth + 1))
                return false;
        } while (eat(','));
        return eat('}') || fail("expected ',' or '}'");
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    std::string err_;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *err)
{
    *out = JsonValue{};
    Reader r(text);
    if (r.document(out))
        return true;
    if (err)
        *err = r.error();
    return false;
}

} // namespace hoopnvm
