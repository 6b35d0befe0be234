/**
 * @file
 * hoop_soak: media-fault endurance harness CLI.
 *
 * Runs every requested scheme x workload cell through an escalating
 * media-fault ramp (see check/soak.hh), asserting that committed data
 * survives and that capacity exhaustion degrades gracefully into
 * structured TxRejected outcomes instead of aborts or wedges. A
 * violating cell is shrunk to a minimal spec and written as replayable
 * JSON; `--replay <file>` re-executes it deterministically. `--json`
 * writes the per-cell counters for CI artifact diffing.
 *
 * Exit codes: 0 = clean matrix, 1 = violations found, 2 = usage
 * error, 3 = per-phase watchdog budget exceeded.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "check/soak.hh"
#include "cli.hh"
#include "workloads/registry.hh"

namespace
{

using namespace hoopnvm;

void
printResult(const SoakResult &r)
{
    std::printf("  admission rejects %llu  mid-tx unwinds %llu  "
                "recoveries %llu\n",
                static_cast<unsigned long long>(r.rejectedAdmission),
                static_cast<unsigned long long>(r.rejectedMidTx),
                static_cast<unsigned long long>(r.recoveries));
    std::printf("  retired units %llu  corrected words %llu  "
                "read retries %llu  uncorrectable reads %llu  "
                "degraded %.3f\n",
                static_cast<unsigned long long>(r.retiredUnits),
                static_cast<unsigned long long>(r.correctedWords),
                static_cast<unsigned long long>(r.readRetries),
                static_cast<unsigned long long>(r.uncorrectableReads),
                r.degradedFraction);
}

std::string
cellJson(const SoakSpec &spec, const SoakResult &r)
{
    std::ostringstream os;
    os << "{\"scheme\": \"" << schemeToken(spec.scheme)
       << "\", \"workload\": \"" << spec.workload << "\", \"violated\": "
       << (r.violated ? "true" : "false")
       << ", \"rejected_admission\": " << r.rejectedAdmission
       << ", \"rejected_mid_tx\": " << r.rejectedMidTx
       << ", \"recoveries\": " << r.recoveries
       << ", \"retired_units\": " << r.retiredUnits
       << ", \"corrected_words\": " << r.correctedWords
       << ", \"read_retries\": " << r.readRetries
       << ", \"uncorrectable_reads\": " << r.uncorrectableReads
       << ", \"degraded_fraction\": " << r.degradedFraction << "}";
    return os.str();
}

/** Re-execute the spec in @p path. */
int
replay(const cli::Tool &tool, const std::string &path,
       const Progress &progress)
{
    SoakSpec spec;
    if (const auto rc = tool.loadSpec(path, &spec))
        return *rc;
    std::printf("replaying %s (%s/%s, seed %llu, %u phases)\n",
                path.c_str(), schemeToken(spec.scheme),
                spec.workload.c_str(),
                static_cast<unsigned long long>(spec.seed), spec.phases);
    const SoakResult r = runSoak(spec, progress);
    printResult(r);
    if (r.violated) {
        std::printf("  VIOLATION: %s\n", r.detail.c_str());
        return cli::kExitViolation;
    }
    std::printf("  no violation\n");
    return cli::kExitClean;
}

/**
 * Run every cell: print its outcome, collect its --json object, and
 * shrink each violation into a reproducer under @p outDir.
 */
int
sweep(const std::vector<SoakSpec> &cells, const std::string &outDir,
      const std::string &jsonPath, const Progress &progress)
{
    std::string cellsJson;
    std::size_t violations = 0;
    for (const SoakSpec &spec : cells) {
        const SoakResult r = runSoak(spec, progress);
        std::printf("%-6s %-8s %s\n", schemeToken(spec.scheme),
                    spec.workload.c_str(),
                    r.violated ? "VIOLATED" : "clean");
        printResult(r);
        cellsJson += (cellsJson.empty() ? "\n    " : ",\n    ") +
                     cellJson(spec, r);
        if (!r.violated)
            continue;
        std::string detail = r.detail;
        const SoakSpec repro = shrinkSoak(spec, &detail, progress);
        const std::string path =
            cli::reproducerPath(outDir, "soak", spec.scheme,
                                spec.workload, violations++);
        cli::writeFile(path, repro.toJson());
        std::printf("  VIOLATION: %s\n  reproducer: %s\n",
                    detail.c_str(), path.c_str());
    }

    if (!jsonPath.empty()) {
        // lint: raw-json-ok (document skeleton around the cell objects; their strings are registry tokens)
        const std::string doc = "{\n  \"cells\": [" + cellsJson + "\n  ]\n}\n";
        cli::writeFile(jsonPath, doc);
    }
    std::printf("total: %zu cell(s) violated\n", violations);
    return violations == 0 ? cli::kExitClean : cli::kExitViolation;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::vector<Scheme> schemes = cli::allSchemes();
    std::vector<std::string> workloads(std::begin(kTableIIIWorkloads),
                                       std::end(kTableIIIWorkloads));
    std::string out_dir = ".";
    std::string json_path;
    std::string replay_path;
    SoakSpec base;
    std::uint64_t budget_ms = 0;

    const cli::Tool tool(
        "hoop_soak",
        {
            {"--scheme S", "hoop|redo|undo|osp|lsm|lad|all   (default all)",
             cli::schemes(&schemes)},
            {"--workload W",
             "vector|hashmap|queue|rbtree|btree|ycsb|tpcc|all\n"
             "(default all)",
             cli::workloads(&workloads)},
            {"--seed N", "deterministic seed (default 42)",
             cli::count(&base.seed)},
            {"--phases N", "escalation steps per cell (default 4)",
             cli::count(&base.phases, 1)},
            {"--tx N", "transactions per core per phase (default 60)",
             cli::count(&base.txPerPhase, 1)},
            {"--warmup N", "fault-free warmup transactions (default 10)",
             cli::count(&base.warmupTx)},
            {"--fault-prob P",
             "per-word fault probability of phase 0\n(default 0.01)",
             cli::real(&base.faultProb)},
            {"--escalation X", "per-phase probability multiplier (default 2)",
             cli::real(&base.escalation)},
            {"--threads N", "recovery threads (default 2)",
             cli::count(&base.recoverThreads)},
            {"--budget-ms N",
             "per-phase wall-clock watchdog: abort with exit\n"
             "code 3 if any single phase runs longer than\n"
             "N ms (default 0 = off)",
             cli::count(&budget_ms)},
            {"--out DIR", "write reproducer JSON files here (default .)",
             cli::text(&out_dir)},
            {"--json FILE", "write per-cell counters as JSON to FILE",
             cli::text(&json_path)},
            {"--replay FILE", "re-execute one soak spec JSON and exit",
             cli::text(&replay_path)},
        });
    if (const auto rc = tool.parse(argc, argv))
        return *rc;
    Watchdog watchdog(budget_ms);
    const Progress progress = [&watchdog](const std::string &label) {
        watchdog.beat(label);
    };
    if (!replay_path.empty())
        return replay(tool, replay_path, progress);
    if (const auto rc = tool.makeOutDir(out_dir))
        return *rc;

    std::vector<SoakSpec> cells;
    for (Scheme scheme : schemes) {
        for (const std::string &wl : workloads) {
            cells.push_back(base);
            cells.back().scheme = scheme;
            cells.back().workload = wl;
        }
    }
    return sweep(cells, out_dir, json_path, progress);
}
