/**
 * @file
 * hoop_ordercheck: persistency-ordering rule coverage and violation
 * report.
 *
 * Runs every requested scheme x workload combination under the
 * ordering analyzer (no crashes — this tool checks the declared
 * durability happens-before rules continuously, on the live write
 * stream) and dumps per-scheme rule coverage: how often each rule
 * fired, how many dependencies it checked, violations, race warnings
 * and the drain-overhead counters ("persisted twice", redundant
 * fences). A rule that never fires across a scheme's whole sweep is
 * reported as dead — a spec-coverage hole.
 *
 * The debug-bug knobs (--break-commit-fence, --early-commit-ack,
 * --skip-settle-fences, --skip-undo-log) reintroduce real ordering
 * bugs so the rule that guards each one can be watched firing; they
 * exist to validate the analyzer, not the schemes.
 *
 * Exit codes: 0 = all rules fired, none violated and every run
 * verified, 1 = violations, dead rules or a failed verification,
 * 2 = usage error.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/order_harness.hh"
#include "cli.hh"
#include "stats/trace.hh"

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::vector<Scheme> schemes = cli::allSchemes();
    std::vector<std::string> workloads = {"hashmap"};
    std::string faults = "none";
    std::uint64_t txs = 120;
    std::uint64_t seed = 1;
    unsigned cores = 2;
    bool verbose = false;
    OrderCheckOptions knobs;

    const cli::Tool tool(
        "hoop_ordercheck",
        {
            {"--scheme S", "hoop|redo|undo|osp|lsm|lad|all   (default all)",
             cli::schemes(&schemes)},
            {"--workload W",
             "vector|hashmap|queue|rbtree|btree|ycsb|tpcc|all\n"
             "(default hashmap)",
             cli::workloads(&workloads)},
            {"--txs N", "tracked transactions per core    (default 120)",
             cli::count(&txs)},
            {"--seed N", "deterministic seed               (default 1)",
             cli::count(&seed)},
            {"--cores N", "simulated cores                  (default 2)",
             cli::count(&cores, 1, kMaxCores)},
            {"--faults F", "none|torn                        (default none)",
             cli::oneOf(&faults, {"none", "torn"})},
            {"--verbose", "print every violation/warning trace",
             cli::on(&verbose)},
            {"--break-commit-fence",
             "seeded bug, hoop: ack commit before record durable",
             cli::on(&knobs.breakCommitFence)},
            {"--early-commit-ack",
             "seeded bug, redo/undo/lsm/osp: ack at issue time",
             cli::on(&knobs.earlyCommitAck)},
            {"--skip-settle-fences",
             "seeded bug: skip drain fences before truncate/GC",
             cli::on(&knobs.skipSettleFences)},
            {"--skip-undo-log",
             "seeded bug, undo: in-place writes without log entry",
             cli::on(&knobs.skipUndoLog)},
            {"--trace FILE",
             "write a Chrome trace (Perfetto-loadable) of\n"
             "every analyzed run to FILE (same as the\n"
             "HOOP_TRACE environment variable)",
             [](const std::string &v) {
                 Trace::setPath(v);
                 return true;
             }},
        });
    if (const auto rc = tool.parse(argc, argv))
        return *rc;

    std::uint64_t total_violations = 0;
    std::uint64_t total_dead = 0;
    bool all_verified = true;

    for (Scheme scheme : schemes) {
        // Dead-rule detection sums fires across every workload: a GC
        // rule idle on one access pattern may be exercised by another.
        std::vector<OrderingRuleReport> scheme_rules;
        OrderingCounters scheme_counters;
        std::uint64_t scheme_warnings = 0;
        bool scheme_verified = true;

        for (const std::string &wl : workloads) {
            OrderCheckOptions opt = knobs;
            opt.scheme = scheme;
            opt.workload = wl;
            opt.seed = seed;
            opt.numCores = cores;
            opt.runTx = txs;
            opt.tornWrites = faults == "torn";

            const OrderCheckReport rep = runOrderCheck(opt);
            total_violations += rep.totalViolations;
            mergeRuleReports(&scheme_rules, rep.rules);
            scheme_counters.timedWrites += rep.counters.timedWrites;
            scheme_counters.settleCalls += rep.counters.settleCalls;
            scheme_counters.redundantSettles +=
                rep.counters.redundantSettles;
            scheme_counters.settledWrites += rep.counters.settledWrites;
            scheme_counters.inflightOverwrites +=
                rep.counters.inflightOverwrites;
            scheme_counters.depOverwrites += rep.counters.depOverwrites;
            scheme_warnings += rep.warnings.size();
            scheme_verified = scheme_verified && rep.verified;

            std::printf("%-6s %-8s tx %5llu violations %4llu "
                        "warnings %3zu verified %s\n",
                        schemeToken(scheme), wl.c_str(),
                        static_cast<unsigned long long>(
                            rep.transactions),
                        static_cast<unsigned long long>(
                            rep.totalViolations),
                        rep.warnings.size(),
                        rep.verified ? "yes" : "NO");
            if (verbose || rep.totalViolations > 0) {
                for (const OrderingViolation &v : rep.violations)
                    std::printf("    VIOLATION [%s]: %s\n",
                                v.rule.c_str(), v.detail.c_str());
            }
            if (verbose) {
                for (const OrderingViolation &w : rep.warnings)
                    std::printf("    warning [%s]: %s\n",
                                w.rule.c_str(), w.detail.c_str());
            }
        }

        std::printf("%-6s rule coverage:\n", schemeToken(scheme));
        for (const OrderingRuleReport &rr : scheme_rules) {
            std::printf("    %-20s %-19s fires %8llu deps %8llu "
                        "violations %llu%s\n",
                        rr.name.c_str(), orderingRuleKindName(rr.kind),
                        static_cast<unsigned long long>(rr.fires),
                        static_cast<unsigned long long>(rr.depsChecked),
                        static_cast<unsigned long long>(rr.violations),
                        rr.fires == 0 ? "  DEAD RULE" : "");
            if (rr.fires == 0)
                ++total_dead;
        }
        std::printf("    counters: writes %llu settles %llu "
                    "(redundant %llu) settled-writes %llu "
                    "inflight-overwrites %llu (dep %llu) "
                    "warnings %llu%s\n",
                    static_cast<unsigned long long>(
                        scheme_counters.timedWrites),
                    static_cast<unsigned long long>(
                        scheme_counters.settleCalls),
                    static_cast<unsigned long long>(
                        scheme_counters.redundantSettles),
                    static_cast<unsigned long long>(
                        scheme_counters.settledWrites),
                    static_cast<unsigned long long>(
                        scheme_counters.inflightOverwrites),
                    static_cast<unsigned long long>(
                        scheme_counters.depOverwrites),
                    static_cast<unsigned long long>(scheme_warnings),
                    scheme_verified ? "" : "  [VERIFY FAILED]");
        all_verified = all_verified && scheme_verified;
    }

    std::printf("total: %llu ordering violations, %llu dead rules\n",
                static_cast<unsigned long long>(total_violations),
                static_cast<unsigned long long>(total_dead));
    return total_violations == 0 && total_dead == 0 && all_verified
               ? cli::kExitClean
               : cli::kExitViolation;
}
