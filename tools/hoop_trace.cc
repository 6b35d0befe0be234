/**
 * @file
 * hoop_trace: run one (scheme, workload) simulation with the Chrome
 * trace-event tracer armed and write a Perfetto-loadable trace.
 *
 * The trace contains per-core transaction spans, GC scan/migrate spans,
 * and — with --crash — the post-crash recovery phases. Load the output
 * in https://ui.perfetto.dev or chrome://tracing.
 *
 * Exit codes: 0 = trace written, 1 = simulation or write failure,
 * 2 = usage error.
 */

#include <cstdio>
#include <string>

#include "cli.hh"
#include "sim/system.hh"
#include "stats/trace.hh"
#include "workloads/registry.hh"

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::string out = "hoop_trace.json";
    Scheme scheme = Scheme::Hoop;
    std::string workload = "hashmap";
    std::uint64_t txs = 200;
    std::uint64_t seed = 42;
    unsigned cores = 4;
    bool crash = false;

    const cli::Tool tool(
        "hoop_trace",
        {
            {"--out FILE", "trace output path       (default hoop_trace.json)",
             cli::text(&out)},
            {"--scheme S",
             "hoop|redo|undo|osp|lsm|lad|native (default hoop)",
             [&scheme](const std::string &v) {
                 return schemeFromToken(v, &scheme);
             }},
            {"--workload W",
             "vector|hashmap|queue|rbtree|btree|ycsb|tpcc\n"
             "(default hashmap)",
             cli::workload(&workload)},
            {"--txs N", "transactions per core   (default 200)",
             cli::count(&txs)},
            {"--cores N", "simulated cores         (default 4)",
             cli::count(&cores, 1, kMaxCores)},
            {"--seed N", "deterministic seed      (default 42)",
             cli::count(&seed)},
            {"--crash", "crash after the run and trace the recovery",
             cli::on(&crash)},
        });
    if (const auto rc = tool.parse(argc, argv))
        return *rc;

    Trace::setPath(out);

    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.homeBytes = miB(64);
    cfg.oopBytes = miB(8);
    cfg.auxBytes = miB(64) + miB(8);
    cfg.seed = seed;

    WorkloadParams params;
    params.scale = 1024;

    RunOutcome run;
    Tick recovery_time = 0;
    {
        // Scoped so the System's trace buffer flushes into the global
        // sink before the file is written below.
        System sys(cfg, scheme);
        run = runWorkload(sys, makeWorkload(workload, params), txs);
        if (!run.verified) {
            std::fprintf(stderr,
                         "hoop_trace: %s/%s failed verification\n",
                         schemeName(scheme), workload.c_str());
            return cli::kExitViolation;
        }
        if (crash) {
            sys.crash();
            recovery_time = sys.recover(cores);
        }
    }

    if (!Trace::write()) {
        std::fprintf(stderr, "hoop_trace: cannot write %s\n",
                     out.c_str());
        return cli::kExitViolation;
    }

    std::printf("hoop_trace: %s/%s, %llu tx/core on %u cores -> %s\n",
                schemeName(scheme), workload.c_str(),
                static_cast<unsigned long long>(txs), cores,
                out.c_str());
    std::printf("  tx committed: %llu, mean critical path %.1f ns\n",
                static_cast<unsigned long long>(run.metrics.transactions),
                run.metrics.avgCriticalPathNs);
    if (crash) {
        std::printf("  recovery traced: %.1f us modelled\n",
                    ticksToNs(recovery_time) / 1000.0);
    }
    std::printf("  open in https://ui.perfetto.dev\n");
    return cli::kExitClean;
}
