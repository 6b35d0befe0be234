/**
 * @file
 * hoop_lint: dependency-free static analysis for the repo's
 * determinism and durability invariants.
 *
 * The whole verification story — shrinking JSON reproducers,
 * bit-identical -j1 vs -jN cells, replayable crash schedules — rests
 * on seeded determinism. Nothing enforced that mechanically until this
 * pass: a token/line-level scanner (no libclang, so it runs in any
 * container and in CI) over src/ bench/ tools/ tests/ with a small
 * pluggable rule engine. Each rule encodes one invariant the repo has
 * already paid for violating once (see DESIGN.md §8 for the catalog
 * and per-rule rationale):
 *
 *   nondet-api       banned wall-clock / libc-random / environment
 *                    APIs in simulation code
 *   unordered-iter   iteration over std::unordered_map/set (address
 *                    or hash-order nondeterminism leaking into output
 *                    or ordering-sensitive state)
 *   ptr-key          pointer-keyed containers / pointer hashing
 *   stats-lookup     string-keyed stats_.counter("x") lookups outside
 *                    constructors (the PR 2 hot-path invariant)
 *   raw-json         JSON string emission bypassing jsonEscape (the
 *                    PR 5 RFC 8259 bug class)
 *   fatal-in-txpath  HOOP_FATAL reachable from runtime admission/tx
 *                    paths that must throw structured TxRejected
 *   float-eq         exact ==/!= against floating-point literals in
 *                    metrics code
 *
 * False positives are suppressed in-source with an annotation that
 * must carry a reason:
 *
 *     // lint: <rule>-ok (why this site is exempt)
 *
 * on the flagged line or on a comment line directly above it. A
 * malformed annotation (unknown rule, missing reason) is itself an
 * error. That annotation is the only suppression channel: every
 * exemption lives next to the code it excuses.
 *
 * The scanner works on a comment- and literal-stripped view of each
 * file (offsets preserved), so rule tokens inside strings or comments
 * never fire — which also means the embedded bad/clean fixtures in
 * fixtures.cc can live inside this library as string constants.
 */

#ifndef HOOPNVM_LINT_LINT_HH
#define HOOPNVM_LINT_LINT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hoopnvm
{
namespace lint
{

/** One input file: repo-relative path (forward slashes) + content. */
struct SourceFile
{
    std::string path;
    std::string content;
};

/** One rule hit (possibly suppressed by an annotation). */
struct Diagnostic
{
    std::string file;
    unsigned line = 0; ///< 1-based
    std::string rule;
    std::string message;
    bool suppressed = false;
    std::string suppressedBy; ///< the annotation's reason
};

/** Static description of one rule for --list-rules and the docs. */
struct RuleInfo
{
    const char *name;
    const char *summary;
};

/** The rule catalog, in report order. */
const std::vector<RuleInfo> &ruleCatalog();

/** True if @p name names a known rule. */
bool ruleKnown(const std::string &name);

struct LintReport
{
    /** Every hit, suppressed ones included, sorted (file, line, rule)
     *  so output is deterministic across platforms and job counts. */
    std::vector<Diagnostic> diags;

    /** Malformed annotations: "path:line: message". Count as
     *  violations — a broken suppression must not silently pass. */
    std::vector<std::string> annotationErrors;

    /** Unsuppressed diagnostics (the exit-code driver). */
    std::size_t unsuppressed = 0;

    /** True when unsuppressed == 0 and no annotation is malformed. */
    bool
    clean() const
    {
        return unsuppressed == 0 && annotationErrors.empty();
    }
};

/** Run every rule over @p files. */
LintReport lintFiles(const std::vector<SourceFile> &files);

// ---- Embedded fixtures (fixtures.cc), exercised by lint_test ----

/** A seeded-bad snippet that must make exactly its rule fire. */
struct Fixture
{
    const char *rule;
    const char *path; ///< synthetic path placing it in the rule's scope
    const char *code;
};

/** One bad fixture per rule, proving each rule is live. */
const std::vector<Fixture> &badFixtures();

/** A snippet every rule must stay quiet on. */
const SourceFile &cleanFixture();

} // namespace lint
} // namespace hoopnvm

#endif // HOOPNVM_LINT_LINT_HH
