/**
 * @file
 * hoop_lint: the determinism & durability invariant checker CLI.
 *
 * Scans src/ bench/ tools/ tests/ (or explicit paths) with the
 * token-level rule engine in src/lint/ and prints file:line
 * diagnostics. The one suppression channel is in-source:
 * `// lint: <rule>-ok (reason)` at the site. tests/lint_test.cc
 * proves every rule live on its embedded bad fixture and quiet on the
 * clean one.
 *
 * Exit codes match the other check tools: 0 = clean, 1 = violations
 * (or malformed annotations), 2 = usage error.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace
{

using namespace hoopnvm;

constexpr const char *kUsage =
    "usage: hoop_lint [options] [paths...]\n"
    "  paths           files or directories to scan, relative to\n"
    "                  --root (default: src bench tools tests)\n"
    "  --root DIR      repository root (default .)\n"
    "  --list-rules    print the rule catalog and exit\n"
    "  --verbose       also print suppressed hits with their reasons\n";

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "hoop_lint: %s\n%s", msg.c_str(), kUsage);
    return 2;
}

bool
lintableExtension(const std::filesystem::path &p)
{
    const std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".hpp" ||
           e == ".h";
}

bool
readFile(const std::filesystem::path &p, std::string *out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Collect lintable files under root/path, repo-relative, sorted. */
bool
collectFiles(const std::filesystem::path &root,
             const std::vector<std::string> &paths,
             std::vector<lint::SourceFile> *files)
{
    namespace fs = std::filesystem;
    std::vector<std::string> rels;
    for (const std::string &p : paths) {
        const fs::path full = root / p;
        std::error_code ec;
        if (fs::is_directory(full, ec)) {
            for (fs::recursive_directory_iterator
                     it(full, fs::directory_options::skip_permission_denied,
                        ec),
                 end;
                 it != end && !ec; it.increment(ec)) {
                if (!it->is_regular_file(ec) ||
                    !lintableExtension(it->path()))
                    continue;
                rels.push_back(
                    fs::relative(it->path(), root, ec).generic_string());
            }
        } else if (fs::is_regular_file(full, ec)) {
            rels.push_back(fs::path(p).generic_string());
        } else {
            std::fprintf(stderr, "hoop_lint: no such path: %s\n",
                         full.string().c_str());
            return false;
        }
    }
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
    for (const std::string &rel : rels) {
        lint::SourceFile sf;
        sf.path = rel;
        if (!readFile(root / rel, &sf.content)) {
            std::fprintf(stderr, "hoop_lint: cannot read %s\n",
                         rel.c_str());
            return false;
        }
        files->push_back(std::move(sf));
    }
    return true;
}

void
printReport(const lint::LintReport &rep, bool verbose)
{
    for (const lint::Diagnostic &d : rep.diags) {
        if (d.suppressed) {
            if (verbose)
                std::printf("%s:%u: suppressed [%s] (%s)\n",
                            d.file.c_str(), d.line, d.rule.c_str(),
                            d.suppressedBy.c_str());
            continue;
        }
        std::printf("%s:%u: error: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.message.c_str());
    }
    for (const std::string &e : rep.annotationErrors)
        std::printf("%s: error: %s\n", e.c_str(),
                    "(malformed suppressions count as violations)");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::vector<std::string> paths;
    bool listRules = false;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--root") {
            const char *v = next();
            if (!v)
                return usageError("--root needs a value");
            root = v;
        } else if (a == "--list-rules") {
            listRules = true;
        } else if (a == "--verbose") {
            verbose = true;
        } else if (a == "--help" || a == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            return usageError("unknown option " + a);
        } else {
            paths.push_back(a);
        }
    }

    if (listRules) {
        for (const lint::RuleInfo &r : lint::ruleCatalog())
            std::printf("%-16s %s\n", r.name, r.summary);
        return 0;
    }

    if (paths.empty())
        paths = {"src", "bench", "tools", "tests"};

    std::vector<lint::SourceFile> files;
    if (!collectFiles(root, paths, &files))
        return 2;
    if (files.empty())
        return usageError("no lintable files found");

    lint::LintReport rep = lint::lintFiles(files);
    printReport(rep, verbose);

    std::size_t suppressed = 0;
    for (const lint::Diagnostic &d : rep.diags)
        suppressed += d.suppressed ? 1 : 0;
    std::printf("hoop_lint: %zu files, %zu violations "
                "(%zu suppressed), %zu annotation errors\n",
                files.size(), rep.unsuppressed, suppressed,
                rep.annotationErrors.size());
    return rep.clean() ? 0 : 1;
}
