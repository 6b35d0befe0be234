/**
 * @file
 * Unit tests for the hoop_lint rule engine: every rule fires on its
 * seeded-bad fixture, stays quiet on clean code, and the suppression
 * annotation binds to its line — including its failure mode (a
 * malformed annotation), which must itself count as a violation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace hoopnvm
{
namespace lint
{
namespace
{

LintReport
lintOne(const std::string &path, const std::string &code)
{
    return lintFiles({{path, code}});
}

std::vector<std::string>
firedRules(const LintReport &rep, bool includeSuppressed = false)
{
    std::vector<std::string> out;
    for (const Diagnostic &d : rep.diags) {
        if (d.suppressed && !includeSuppressed)
            continue;
        out.push_back(d.rule);
    }
    return out;
}

TEST(LintFixtures, EveryRuleHasALiveBadFixture)
{
    std::set<std::string> covered;
    for (const Fixture &fx : badFixtures()) {
        ASSERT_TRUE(ruleKnown(fx.rule)) << fx.rule;
        const LintReport rep = lintOne(fx.path, fx.code);
        const std::vector<std::string> fired = firedRules(rep);
        EXPECT_NE(std::find(fired.begin(), fired.end(), fx.rule),
                  fired.end())
            << "fixture for '" << fx.rule << "' did not fire its rule";
        covered.insert(fx.rule);
    }
    for (const RuleInfo &r : ruleCatalog())
        EXPECT_TRUE(covered.count(r.name))
            << "rule '" << r.name << "' has no bad fixture";
}

TEST(LintFixtures, CleanFixtureIsQuiet)
{
    const SourceFile &clean = cleanFixture();
    const LintReport rep = lintFiles({clean});
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(firedRules(rep, true).empty());
}

TEST(LintFixtures, DiagnosticsCarryFileAndLine)
{
    for (const Fixture &fx : badFixtures()) {
        const LintReport rep = lintOne(fx.path, fx.code);
        for (const Diagnostic &d : rep.diags) {
            EXPECT_EQ(d.file, fx.path);
            EXPECT_GE(d.line, 1u);
            EXPECT_FALSE(d.message.empty());
        }
    }
}

TEST(LintAnnotation, SameLineSuppresses)
{
    const LintReport rep = lintOne(
        "src/x.cc",
        "void f() {\n"
        "    srand(42); // lint: nondet-api-ok (test vector seeding)\n"
        "}\n");
    ASSERT_EQ(rep.diags.size(), 1u);
    EXPECT_TRUE(rep.diags[0].suppressed);
    EXPECT_EQ(rep.diags[0].suppressedBy, "test vector seeding");
    EXPECT_EQ(rep.unsuppressed, 0u);
    EXPECT_TRUE(rep.clean());
}

TEST(LintAnnotation, CommentLineAboveBindsToNextCodeLine)
{
    const LintReport rep = lintOne(
        "src/x.cc",
        "void f() {\n"
        "    // lint: nondet-api-ok (host profiling only)\n"
        "    srand(42);\n"
        "}\n");
    ASSERT_EQ(rep.diags.size(), 1u);
    EXPECT_TRUE(rep.diags[0].suppressed);
    EXPECT_TRUE(rep.clean());
}

TEST(LintAnnotation, WrongRuleDoesNotSuppress)
{
    const LintReport rep = lintOne(
        "src/x.cc",
        "void f() {\n"
        "    srand(42); // lint: float-eq-ok (wrong rule)\n"
        "}\n");
    ASSERT_EQ(rep.diags.size(), 1u);
    EXPECT_FALSE(rep.diags[0].suppressed);
    EXPECT_EQ(rep.unsuppressed, 1u);
    EXPECT_FALSE(rep.clean());
}

TEST(LintAnnotation, MalformedAnnotationIsAnError)
{
    // Unknown rule name.
    LintReport rep = lintOne(
        "src/x.cc", "int a; // lint: no-such-rule-ok (reason)\n");
    ASSERT_EQ(rep.annotationErrors.size(), 1u);
    EXPECT_FALSE(rep.clean());

    // Missing reason.
    rep = lintOne("src/x.cc", "int a; // lint: nondet-api-ok\n");
    ASSERT_EQ(rep.annotationErrors.size(), 1u);
    EXPECT_FALSE(rep.clean());

    // Empty reason.
    rep = lintOne("src/x.cc", "int a; // lint: nondet-api-ok ()\n");
    ASSERT_EQ(rep.annotationErrors.size(), 1u);
    EXPECT_FALSE(rep.clean());
}

TEST(LintAnnotation, ProseMentionsAreNotMarkers)
{
    // "hoop_lint:" and doc text quoting the grammar must not parse as
    // annotations (the marker needs a word boundary and a rule token).
    const LintReport rep = lintOne(
        "src/x.cc",
        "// hoop_lint: the checker described in DESIGN.md\n"
        "// annotate with lint: <rule>-ok (reason)\n"
        "int a;\n");
    EXPECT_TRUE(rep.annotationErrors.empty());
    EXPECT_TRUE(rep.clean());
}

TEST(LintRules, StatsLookupExemptInConstructor)
{
    // The PR 2 invariant: string-keyed lookups are fine in a
    // constructor init body (that is where counters get resolved),
    // and a violation everywhere else.
    const LintReport ctor = lintOne(
        "src/x.cc",
        "Foo::Foo()\n"
        "{\n"
        "    c_ = stats_.counter(\"tx_committed\");\n"
        "}\n");
    EXPECT_TRUE(firedRules(ctor).empty());

    const LintReport hot = lintOne(
        "src/x.cc",
        "void Foo::commit()\n"
        "{\n"
        "    stats_.counter(\"tx_committed\") += 1;\n"
        "}\n");
    const std::vector<std::string> fired = firedRules(hot);
    EXPECT_NE(std::find(fired.begin(), fired.end(), "stats-lookup"),
              fired.end());
}

TEST(LintRules, SortedKeysIterationIsBlessed)
{
    const std::string decl =
        "std::unordered_map<Addr, LineImage> writes;\n";
    const LintReport bad = lintOne(
        "src/x.cc",
        decl + "void f() { for (const auto &kv : writes) {} }\n");
    EXPECT_EQ(firedRules(bad),
              std::vector<std::string>{"unordered-iter"});

    const LintReport good = lintOne(
        "src/x.cc",
        decl +
            "void f() { for (const Addr a : sortedKeys(writes)) {} }\n");
    EXPECT_TRUE(firedRules(good).empty());
}

TEST(LintRules, HeaderPairingSeesMembersAcrossFiles)
{
    // A member declared unordered in foo.hh must make a range-for in
    // foo.cc fire, even though foo.cc never names the container type.
    const SourceFile hh{
        "src/foo.hh",
        "struct Foo { std::unordered_map<Addr, LineImage> live; };\n"};
    const SourceFile cc{
        "src/foo.cc", "void Foo::f() { for (auto &kv : live) {} }\n"};
    const LintReport rep = lintFiles({hh, cc});
    bool fired_in_cc = false;
    for (const Diagnostic &d : rep.diags)
        fired_in_cc |=
            d.file == "src/foo.cc" && d.rule == "unordered-iter";
    EXPECT_TRUE(fired_in_cc);
}

TEST(LintRules, StringAndCommentContentsNeverFire)
{
    const LintReport rep = lintOne(
        "src/x.cc",
        "// calls srand() and getenv() in prose\n"
        "const char *doc = \"srand(1); getenv(x); rand()\";\n"
        "const char *raw = R\"(system(\"rand\"))\";\n");
    EXPECT_TRUE(firedRules(rep, true).empty());
    EXPECT_TRUE(rep.clean());
}

TEST(LintReportShape, DiagsSortedByFileLineRule)
{
    const LintReport rep = lintFiles(
        {{"src/b.cc", "void f() { srand(1); }\n"},
         {"src/a.cc", "void g() { rand(); srand(2); }\n"}});
    ASSERT_GE(rep.diags.size(), 3u);
    for (std::size_t i = 1; i < rep.diags.size(); ++i) {
        const Diagnostic &p = rep.diags[i - 1];
        const Diagnostic &d = rep.diags[i];
        EXPECT_LE(std::tie(p.file, p.line, p.rule),
                  std::tie(d.file, d.line, d.rule));
    }
}

} // namespace
} // namespace lint
} // namespace hoopnvm
