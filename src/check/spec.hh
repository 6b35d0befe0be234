/**
 * @file
 * One JSON codec and one greedy shrinker for the checkers' replayable
 * specs (CrashSchedule, SoakSpec).
 *
 * Every harness serializes its violating experiment so a failure can
 * be re-executed bit-for-bit (`--replay`). A spec lists its fields
 * once, as (key, member) pairs; writeSpec() and readSpec() are both
 * generated from that table, so no field can be written but not read
 * back. Numbers round-trip exactly: integers parse as integers and
 * doubles print in shortest round-trip form. Each field checks its
 * value (enum token, workload name, range), so a malformed reproducer
 * fails with an error naming the key instead of a crash inside the
 * run.
 */

#ifndef HOOPNVM_CHECK_SPEC_HH
#define HOOPNVM_CHECK_SPEC_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"

namespace hoopnvm
{

/** One spec field: its JSON key and both directions of its codec. */
template <typename Spec>
struct SpecField
{
    const char *key;

    /** The member's JSON text. */
    std::function<std::string(const Spec &)> write;

    /** Decode into the member; false (with @p why, if it has more to
     *  say than "bad value") rejects the value. */
    std::function<bool(const JsonValue &, Spec *, std::string *why)> read;
};

/** Unsigned integer member, accepted in [@p lo, @p hi]. */
template <typename Spec, typename T>
SpecField<Spec>
uintField(const char *key, T Spec::*m, std::uint64_t lo = 0,
          std::uint64_t hi = std::numeric_limits<T>::max())
{
    return {key, [m](const Spec &s) { return std::to_string(s.*m); },
            [m, lo, hi](const JsonValue &v, Spec *s, std::string *) {
                std::uint64_t x = 0;
                if (v.kind != JsonValue::Kind::Number ||
                    !parseUint(v.text, &x) || x < lo || x > hi)
                    return false;
                s->*m = static_cast<T>(x);
                return true;
            }};
}

/** Finite, non-negative double member. */
template <typename Spec>
SpecField<Spec>
realField(const char *key, double Spec::*m)
{
    return {key, [m](const Spec &s) { return jsonNumber(s.*m); },
            [m](const JsonValue &v, Spec *s, std::string *) {
                double x = 0;
                if (v.kind != JsonValue::Kind::Number ||
                    !parseReal(v.text, &x) || x < 0)
                    return false;
                s->*m = x;
                return true;
            }};
}

template <typename Spec>
SpecField<Spec>
boolField(const char *key, bool Spec::*m)
{
    return {key,
            [m](const Spec &s) { return std::string(s.*m ? "true" : "false"); },
            [m](const JsonValue &v, Spec *s, std::string *) {
                if (v.kind != JsonValue::Kind::Bool)
                    return false;
                s->*m = v.boolean;
                return true;
            }};
}

/** String member, accepted when @p known(value). */
template <typename Spec>
SpecField<Spec>
nameField(const char *key, std::string Spec::*m,
          bool (*known)(const std::string &))
{
    return {key, [m](const Spec &s) { return jsonQuote(s.*m); },
            [m, known](const JsonValue &v, Spec *s, std::string *) {
                if (v.kind != JsonValue::Kind::String || !known(v.text))
                    return false;
                s->*m = v.text;
                return true;
            }};
}

/** Enum member spelled by its token (schemes, crash-point kinds). */
template <typename Spec, typename E>
SpecField<Spec>
tokenField(const char *key, E Spec::*m, const char *(*token)(E),
           bool (*fromToken)(const std::string &, E *))
{
    return {key, [m, token](const Spec &s) { return jsonQuote(token(s.*m)); },
            [m, fromToken](const JsonValue &v, Spec *s, std::string *) {
                return v.kind == JsonValue::Kind::String &&
                       fromToken(v.text, &(s->*m));
            }};
}

/**
 * Write @p spec as a JSON object, one member per line — or all on one
 * line when @p oneLine (specs nested in arrays).
 */
template <typename Spec>
std::string
writeSpec(const Spec &spec, const std::vector<SpecField<Spec>> &fields,
          bool oneLine = false)
{
    std::string out = oneLine ? "{" : "{\n  ";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out += oneLine ? ", " : ",\n  ";
        out += jsonQuote(fields[i].key) + ": " + fields[i].write(spec);
    }
    return out + (oneLine ? "}" : "\n}\n");
}

/**
 * Decode object @p v into @p out; members it lacks keep their values.
 * @return false with @p err naming the offending key and its offset.
 */
template <typename Spec>
bool
readSpec(const JsonValue &v, const std::vector<SpecField<Spec>> &fields,
         Spec *out, std::string *err)
{
    if (v.kind != JsonValue::Kind::Object) {
        *err = "expected an object at offset " + std::to_string(v.offset);
        return false;
    }
    for (const auto &[key, value] : v.members) {
        const auto f = std::find_if(
            fields.begin(), fields.end(),
            [&key](const SpecField<Spec> &sf) { return key == sf.key; });
        std::string why;
        if (f == fields.end())
            why = "unknown key '" + key + "'";
        else if (!f->read(value, out, &why) && why.empty())
            why = "bad value for key '" + key + "'";
        if (!why.empty()) {
            *err = why + " at offset " + std::to_string(value.offset);
            return false;
        }
    }
    return true;
}

/** Parse @p text into a default-constructed @p out (a spec's
 *  fromJson). @return false with @p err set on malformed input. */
template <typename Spec>
bool
specFromJson(const std::string &text,
             const std::vector<SpecField<Spec>> &fields, Spec *out,
             std::string *err)
{
    *out = Spec{};
    JsonValue doc;
    std::string why;
    const bool ok = parseJson(text, &doc, &why) &&
                    readSpec(doc, fields, out, &why);
    if (!ok && err)
        *err = why;
    return ok;
}

/**
 * Greedy shrink: try @p candidates(best) in order and adopt the first
 * that still violates, until no candidate does or @p budget runs are
 * spent. @p violates(cand, &detail) runs one candidate.
 * @return the smallest still-violating spec found.
 */
template <typename Spec, typename Candidates, typename Violates>
Spec
shrinkSpec(const Spec &failing, int budget, Candidates candidates,
           Violates violates, std::string *detail)
{
    Spec best = failing;
    bool improved = true;
    while (improved && budget > 0) {
        improved = false;
        for (const Spec &cand : candidates(best)) {
            if (budget <= 0)
                break;
            --budget;
            std::string d;
            if (violates(cand, &d)) {
                best = cand;
                if (detail)
                    *detail = d;
                improved = true;
                break;
            }
        }
    }
    return best;
}

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_SPEC_HH
