/**
 * @file
 * hoop_crashcheck: systematic crash-point exploration CLI.
 *
 * Sweeps crash schedules across the five boundary classes for any
 * scheme x workload combination, reports per-class coverage, shrinks
 * violations to minimal reproducers and writes them as replayable
 * JSON. `--replay <file>` re-executes a reproducer deterministically.
 *
 * Each sweep's host seconds and explored points per second go to
 * stderr, so stdout stays byte-comparable between runs and builds.
 *
 * Exit codes: 0 = clean sweep, 1 = violations found, 2 = usage error,
 * 3 = per-schedule watchdog budget exceeded.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "check/crash_explorer.hh"
#include "cli.hh"
#include "stats/trace.hh"

namespace
{

using namespace hoopnvm;

int
replay(const cli::Tool &tool, const std::string &path)
{
    CrashSchedule sched;
    if (const auto rc = tool.loadSpec(path, &sched))
        return *rc;

    std::printf("replaying %s (%s/%s, seed %llu, %zu steps)\n",
                path.c_str(), schemeToken(sched.scheme),
                sched.workload.c_str(),
                static_cast<unsigned long long>(sched.seed),
                sched.steps.size());
    const ScheduleResult r = runSchedule(sched);
    std::printf("  crash fired: %s  recovery crash fired: %s\n",
                r.crashFired ? "yes" : "no",
                r.recoveryCrashFired ? "yes" : "no");
    std::uint64_t ordering_violations = 0;
    for (const OrderingRuleReport &rr : r.orderingRules) {
        ordering_violations += rr.violations;
        std::printf("  rule %-20s fires %6llu deps %6llu "
                    "violations %llu\n",
                    rr.name.c_str(),
                    static_cast<unsigned long long>(rr.fires),
                    static_cast<unsigned long long>(rr.depsChecked),
                    static_cast<unsigned long long>(rr.violations));
    }
    for (const OrderingViolation &v : r.orderingTraces)
        std::printf("  ORDERING VIOLATION [%s]: %s\n", v.rule.c_str(),
                    v.detail.c_str());
    if (r.violated) {
        std::printf("  VIOLATION: %s\n", r.detail.c_str());
        return cli::kExitViolation;
    }
    if (ordering_violations > 0) {
        std::printf("  %llu ordering violation(s)\n",
                    static_cast<unsigned long long>(
                        ordering_violations));
        return cli::kExitViolation;
    }
    std::printf("  no violation\n");
    return cli::kExitClean;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::vector<Scheme> schemes = {Scheme::Hoop};
    std::vector<std::string> workloads = {"vector"};
    std::string faults = "none";
    std::string out_dir = ".";
    std::string replay_path;
    std::uint64_t budget = 50;
    std::uint64_t budget_ms = 0;
    std::uint64_t seed = 42;
    unsigned threads = 2;
    bool break_fence = false;
    bool ordering = false;

    const cli::Tool tool(
        "hoop_crashcheck",
        {
            {"--scheme S", "hoop|redo|undo|osp|lsm|lad|all   (default hoop)",
             cli::schemes(&schemes)},
            {"--workload W",
             "vector|hashmap|queue|rbtree|btree|ycsb|tpcc|all\n"
             "(default vector)",
             cli::workloads(&workloads)},
            {"--budget N", "max schedules per scheme x workload (default 50)",
             cli::count(&budget)},
            {"--seed N", "deterministic seed (default 42)",
             cli::count(&seed)},
            {"--threads N", "recovery threads (default 2)",
             cli::count(&threads)},
            {"--faults F",
             "none|torn|media                  (default none)\n"
             "media: runtime media-fault regime — fault\n"
             "tolerance on, seeded wear-out faults over free\n"
             "capacity plus transient read disturbs, strict\n"
             "oracles (committed data must survive)",
             cli::oneOf(&faults, {"none", "torn", "media"})},
            {"--budget-ms N",
             "per-schedule wall-clock watchdog: abort with\n"
             "exit code 3 if any single schedule runs longer\n"
             "than N ms (default 0 = off)",
             cli::count(&budget_ms)},
            {"--break-commit-fence",
             "debug: ack commits before the record is\n"
             "durable (implies torn writes; HOOP only\n"
             "knob, used to validate the checker)",
             cli::on(&break_fence)},
            {"--ordering",
             "arm the persistency-ordering analyzer on every\n"
             "schedule: declared durability rules are checked\n"
             "continuously, so a violated rule is reported\n"
             "even when no schedule's crash lands in the\n"
             "vulnerable window; rules that never fire across\n"
             "a scheme's whole sweep are reported as dead",
             cli::on(&ordering)},
            {"--out DIR", "write reproducer JSON files here (default .)",
             cli::text(&out_dir)},
            {"--replay FILE", "re-execute one schedule JSON and exit",
             cli::text(&replay_path)},
            {"--trace FILE",
             "write a Chrome trace (Perfetto-loadable) of\n"
             "every explored schedule to FILE (same as the\n"
             "HOOP_TRACE environment variable)",
             [](const std::string &v) {
                 Trace::setPath(v);
                 return true;
             }},
        });
    if (const auto rc = tool.parse(argc, argv))
        return *rc;
    if (!replay_path.empty())
        return replay(tool, replay_path);
    if (const auto rc = tool.makeOutDir(out_dir))
        return *rc;

    Watchdog watchdog(budget_ms);

    std::size_t violation_files = 0;
    std::uint64_t total_schedules = 0;
    std::uint64_t total_violations = 0;
    std::uint64_t total_ordering_violations = 0;
    std::uint64_t total_dead_rules = 0;

    for (Scheme scheme : schemes) {
        // A rule can legitimately sit idle on one workload (e.g. a GC
        // rule on a read-mostly stream), so dead-rule detection sums
        // fires across every workload of the scheme's sweep.
        std::vector<OrderingRuleReport> scheme_rules;

        for (const std::string &wl : workloads) {
            ExploreOptions opt;
            opt.scheme = scheme;
            opt.workload = wl;
            opt.seed = seed;
            opt.budget = budget;
            opt.recoverThreads = threads;
            opt.tornWrites = faults == "torn";
            if (faults == "media")
                opt.runtimeFaultProb = 0.02;
            opt.breakCommitFence = break_fence;
            opt.ordering = ordering;
            opt.progress = [&watchdog](const CrashSchedule &s) {
                watchdog.beat(std::string(schemeToken(s.scheme)) + "/" +
                              s.workload + " schedule (" +
                              std::to_string(s.steps.size()) +
                              " steps)");
            };

            // lint: nondet-api-ok (host timing for the stderr rate line; never feeds simulated state)
            const auto t0 = std::chrono::steady_clock::now();
            const ExploreReport rep = explore(opt);
            // lint: nondet-api-ok (host timing for the stderr rate line; never feeds simulated state)
            const auto t1 = std::chrono::steady_clock::now();
            const std::chrono::duration<double> host = t1 - t0;
            std::fprintf(stderr,
                         "%-6s %-8s host %.3f s, %.0f points/s, "
                         "%llu re-run\n",
                         schemeToken(scheme), wl.c_str(), host.count(),
                         static_cast<double>(rep.schedulesRun) /
                             std::max(host.count(), 1e-9),
                         static_cast<unsigned long long>(
                             rep.pointsRerun));
            total_schedules += rep.schedulesRun;
            total_violations += rep.violations.size();
            total_ordering_violations += rep.orderingViolations;
            mergeRuleReports(&scheme_rules, rep.orderingRules);

            std::printf("%-6s %-8s schedules %4llu crashes %4llu "
                        "rec-crashes %3llu violations %zu\n",
                        schemeToken(scheme), wl.c_str(),
                        static_cast<unsigned long long>(
                            rep.schedulesRun),
                        static_cast<unsigned long long>(
                            rep.crashesFired),
                        static_cast<unsigned long long>(
                            rep.recoveryCrashesFired),
                        rep.violations.size());
            for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
                std::printf(
                    "         %-15s events %6llu schedules %4llu "
                    "fired %4llu\n",
                    crashPointKindToken(static_cast<CrashPointKind>(k)),
                    static_cast<unsigned long long>(
                        rep.eventsProfiled[k]),
                    static_cast<unsigned long long>(
                        rep.schedulesPerKind[k]),
                    static_cast<unsigned long long>(
                        rep.firedPerKind[k]));
            }

            if (rep.orderingViolations > 0) {
                std::printf("         ordering violations %llu\n",
                            static_cast<unsigned long long>(
                                rep.orderingViolations));
                for (const OrderingViolation &v : rep.orderingTraces)
                    std::printf("         ORDERING [%s]: %s\n",
                                v.rule.c_str(), v.detail.c_str());
            }

            for (const Violation &v : rep.violations) {
                const std::string path = cli::reproducerPath(
                    out_dir, "crashcheck", v.reproducer.scheme,
                    v.reproducer.workload, violation_files++);
                cli::writeFile(path, v.reproducer.toJson());
                std::printf("  VIOLATION: %s\n  reproducer: %s\n",
                            v.detail.c_str(), path.c_str());
            }
        }

        if (ordering) {
            std::printf("%-6s ordering rules:\n", schemeToken(scheme));
            for (const OrderingRuleReport &rr : scheme_rules) {
                std::printf("         %-20s fires %8llu deps %8llu "
                            "violations %llu%s\n",
                            rr.name.c_str(),
                            static_cast<unsigned long long>(rr.fires),
                            static_cast<unsigned long long>(
                                rr.depsChecked),
                            static_cast<unsigned long long>(
                                rr.violations),
                            rr.fires == 0 ? "  DEAD RULE" : "");
                if (rr.fires == 0)
                    ++total_dead_rules;
            }
        }
    }

    std::printf("total: %llu schedules, %llu violations",
                static_cast<unsigned long long>(total_schedules),
                static_cast<unsigned long long>(total_violations));
    if (ordering)
        std::printf(", %llu ordering violations, %llu dead rules",
                    static_cast<unsigned long long>(
                        total_ordering_violations),
                    static_cast<unsigned long long>(total_dead_rules));
    std::printf("\n");
    const bool clean = total_violations == 0 &&
                       total_ordering_violations == 0 &&
                       total_dead_rules == 0;
    return clean ? cli::kExitClean : cli::kExitViolation;
}
