/**
 * @file
 * Reproduces paper Figures 7, 8 and 9 from one run of the scheme x
 * workload matrix: all Table III workloads across the six schemes plus
 * the Ideal (native) system, read three ways.
 *
 * Expected shapes:
 *  - Fig. 7 (§IV-B/C): (a) throughput normalized to Opt-Redo and (b)
 *    critical-path latency normalized to Ideal. HOOP beats every
 *    persistent scheme (Opt-Redo worst; ordering Opt-Redo < Opt-Undo <
 *    OSP < LSM < LAD < HOOP < Ideal on average) and its critical path
 *    sits close to the native system while undo logging and LSM sit
 *    far above it. The footer reports the geometric-mean ratios the
 *    paper quotes, plus the read-path profile of §IV-C.
 *  - Fig. 8 (§IV-D): NVM write traffic per transaction. Opt-Redo and
 *    Opt-Undo write about 2.1x / 1.9x more than HOOP; OSP, LSM and LAD
 *    sit 21.2% / 12.5% / 11.6% above HOOP; HOOP is the lowest of the
 *    persistent schemes thanks to word-granularity packing and GC
 *    coalescing.
 *  - Fig. 9 (§IV-E): NVM access energy per transaction (Table II
 *    energy parameters). HOOP is the most energy-efficient persistent
 *    scheme even though its GC and parallel reads add read traffic,
 *    because writes cost ~5x more energy per bit than reads; paper
 *    reductions vs OSP/LSM/LAD are 37.6%/29.6%/10.8%.
 */

#include <cmath>

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "fig7_8_9",
                "Figures 7-9 - throughput, critical-path latency, write "
                "traffic and energy",
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

    // ---- Fig. 7 ----
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
                imp(Scheme::Native));
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

    // ---- Fig. 8 ----
    std::printf("\n");
    std::map<Scheme, double> traffic_geo = matrix.printNormalized(
        "Fig. 8: NVM bytes written per tx, normalized to Ideal "
        "(lower is better)",
        Scheme::Native,
        [](const RunMetrics &m) { return m.bytesWrittenPerTx; });

    std::printf("paper-vs-measured traffic ratios (scheme / HOOP):\n");
    auto ratio = [&](Scheme s) {
        return traffic_geo[s] / traffic_geo[Scheme::Hoop];
    };
    std::printf("  Opt-Redo: paper 2.1x, measured %.2fx\n",
                ratio(Scheme::OptRedo));
    std::printf("  Opt-Undo: paper 1.9x, measured %.2fx\n",
                ratio(Scheme::OptUndo));
    std::printf("  OSP:      paper 1.21x, measured %.2fx\n",
                ratio(Scheme::Osp));
    std::printf("  LSM:      paper 1.13x, measured %.2fx\n",
                ratio(Scheme::Lsm));
    std::printf("  LAD:      paper 1.12x, measured %.2fx\n",
                ratio(Scheme::Lad));

    // ---- Fig. 9 ----
    std::printf("\n");
    std::map<Scheme, double> energy_geo = matrix.printNormalized(
        "Fig. 9: NVM energy per tx, normalized to Ideal "
        "(lower is better)",
        Scheme::Native, [](const RunMetrics &m) {
            return m.energyPj / static_cast<double>(m.transactions);
        });

    auto saving = [&](Scheme s) {
        return (1.0 - energy_geo[Scheme::Hoop] / energy_geo[s]) * 100.0;
    };
    std::printf("paper-vs-measured energy savings of HOOP:\n");
    std::printf("  vs OSP: paper 37.6%%, measured %.1f%%\n",
                saving(Scheme::Osp));
    std::printf("  vs LSM: paper 29.6%%, measured %.1f%%\n",
                saving(Scheme::Lsm));
    std::printf("  vs LAD: paper 10.8%%, measured %.1f%%\n",
                saving(Scheme::Lad));

    bench.write();
    return 0;
}
