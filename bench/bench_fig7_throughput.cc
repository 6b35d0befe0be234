/**
 * @file
 * Reproduces paper Figure 7: (a) transaction throughput normalized to
 * Opt-Redo and (b) critical-path latency normalized to the native
 * system, for all Table III workloads across the six schemes plus the
 * Ideal (native) system.
 *
 * Expected shape (paper §IV-B/C): HOOP beats every persistent scheme
 * (Opt-Redo worst; ordering Opt-Redo < Opt-Undo < OSP < LSM < LAD <
 * HOOP < Ideal on average) and its critical path sits close to the
 * native system while undo logging and LSM sit far above it. The
 * footer reports the geometric-mean ratios the paper quotes, plus the
 * read-path profile of §IV-C.
 */

#include <cmath>

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "fig7_throughput",
                "Figure 7 - transaction throughput & critical-path "
                "latency",
                cfg, benchTxPerCore());

    // §IV-C read-path profile for HOOP on YCSB-1KB: needs the System's
    // internal stats, read off that matrix cell.
    double profile_fills = 0.0;
    double profile_parallel_reads = 0.0;
    const FigureMatrix matrix(bench, cfg, [&](System &sys) {
        profile_fills =
            static_cast<double>(sys.caches().stats().value("llc_fills"));
        profile_parallel_reads = static_cast<double>(
            sys.controller().stats().value("parallel_reads"));
    });
    bench.run();

    std::map<Scheme, double> tput_geo = matrix.printNormalized(
        "Fig. 7a: throughput normalized to Opt-Redo (higher is better)",
        Scheme::OptRedo,
        [](const RunMetrics &m) { return m.txPerSecond; });
    std::map<Scheme, double> lat_geo = matrix.printNormalized(
        "Fig. 7b: critical-path latency normalized to Ideal (lower is "
        "better)",
        Scheme::Native,
        [](const RunMetrics &m) { return m.avgCriticalPathNs; });

    // Latency tails: the mean in Fig. 7b hides GC- and log-induced
    // spikes; the per-scheme quantiles (geomean across workloads, in
    // ns) make them visible.
    TablePrinter tails("Critical-path latency quantiles "
                       "(geomean across workloads, ns)");
    tails.setHeader({"scheme", "p50", "p95", "p99", "max"});
    for (Scheme s : kAllSchemes) {
        double g50 = 0.0, g95 = 0.0, g99 = 0.0, gmax = 0.0;
        for (std::size_t w = 0; w < matrix.cols().size(); ++w) {
            const LatencySummary &q = matrix.at(s, w).critPath;
            g50 += std::log(q.p50Ns);
            g95 += std::log(q.p95Ns);
            g99 += std::log(q.p99Ns);
            gmax += std::log(q.maxNs);
        }
        const double n = static_cast<double>(matrix.cols().size());
        tails.addRow({schemeName(s),
                      TablePrinter::num(std::exp(g50 / n), 0),
                      TablePrinter::num(std::exp(g95 / n), 0),
                      TablePrinter::num(std::exp(g99 / n), 0),
                      TablePrinter::num(std::exp(gmax / n), 0)});
    }
    tails.print();

    std::printf("paper-vs-measured headline ratios:\n");
    auto imp = [&](Scheme s) {
        return (tput_geo[Scheme::Hoop] / tput_geo[s] - 1.0) * 100.0;
    };
    std::printf("  HOOP throughput vs Opt-Redo: paper +74.3%%, "
                "measured %+.1f%%\n",
                imp(Scheme::OptRedo));
    std::printf("  HOOP throughput vs Opt-Undo: paper +45.1%%, "
                "measured %+.1f%%\n",
                imp(Scheme::OptUndo));
    std::printf("  HOOP throughput vs OSP:      paper +33.8%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Osp));
    std::printf("  HOOP throughput vs LSM:      paper +27.9%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Lsm));
    std::printf("  HOOP throughput vs LAD:      paper +24.3%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Lad));
    std::printf("  HOOP throughput vs Ideal:    paper -20.6%%, "
                "measured %+.1f%%\n",
                (tput_geo[Scheme::Hoop] / tput_geo[Scheme::Native] -
                 1.0) *
                    100.0);
    std::printf("  HOOP critical path vs Ideal: paper +24.1%%, "
                "measured %+.1f%%\n\n",
                (lat_geo[Scheme::Hoop] - 1.0) * 100.0);

    std::printf("HOOP read-path profile (YCSB-1KB): LLC miss ratio "
                "%.1f%% (paper 12.1%%), parallel reads %.1f%% of "
                "fills (paper: 28.3%% of misses incur them, 3.4%% "
                "of accesses)\n",
                matrix.at(Scheme::Hoop, "ycsb-1KB").llcMissRatio * 100.0,
                profile_fills > 0.0
                    ? 100.0 * profile_parallel_reads / profile_fills
                    : 0.0);

    bench.write();
    return 0;
}
