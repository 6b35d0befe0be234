/**
 * @file
 * Reproduces paper Figure 10: GC efficiency as the periodic trigger
 * threshold sweeps 2..14 ms, on the five synthetic workloads.
 *
 * Expected shape (paper §IV-F): short periods trigger eager GC that
 * forfeits coalescing opportunities and burns NVM bandwidth; peak
 * throughput lands around 8-10 ms; very long periods run out of
 * reserved OOP space and push on-demand GC onto the critical path.
 * The OOP region is sized down here so the long-period cliff is
 * reachable within bench time.
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    SystemConfig cfg = paperConfig();
    // Small reserved region, small LLC (more out-of-place eviction
    // traffic) and short periods so the trade-off shows at bench
    // scale: the paper's ms-scale sweep needs seconds of simulated
    // time; we sweep the same shape at microsecond scale.
    cfg.oopBytes = miB(2);
    cfg.oopBlockBytes = miB(1) / 8;
    cfg.cache.llcSize = kiB(512);
    Bench bench(argc, argv, "fig10_gc_period",
                "Figure 10 - GC efficiency vs trigger period", cfg,
                benchTxPerCore(250));

    const double periods_us[] = {10, 20, 40, 80, 120, 160, 240};
    const std::vector<const char *> workloads = {
        "vector", "hashmap", "queue", "rbtree", "btree"};

    // Cell w * periods + p: workload w at period p.
    for (const char *w : workloads) {
        for (const double period : periods_us) {
            SystemConfig c = cfg;
            c.gcPeriod = nsToTicks(period * 1000.0);
            bench.add(std::string(w) + "/" +
                          TablePrinter::num(period, 0) + "us",
                      Scheme::Hoop, w, paperParams(64), c,
                      bench.txPerCore());
        }
    }
    bench.run();

    TablePrinter table(
        "Fig. 10: throughput (tx/s) vs GC trigger period "
        "(paper sweeps 2-14 ms at full scale; same shape)");
    std::vector<std::string> header = {"workload"};
    for (double p : periods_us)
        header.push_back(TablePrinter::num(p, 0) + "us");
    header.push_back("best");
    table.setHeader(header);

    // Workloads whose best period is not the longest one swept: an
    // interior maximum, the shape the paper reports.
    std::size_t interior = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::vector<std::string> row = {workloads[w]};
        double best_tput = 0.0;
        double best_period = 0.0;
        for (std::size_t p = 0; p < std::size(periods_us); ++p) {
            const RunMetrics &m =
                bench.metrics(w * std::size(periods_us) + p);
            row.push_back(TablePrinter::num(m.txPerSecond / 1e6, 3));
            if (m.txPerSecond > best_tput) {
                best_tput = m.txPerSecond;
                best_period = periods_us[p];
            }
        }
        row.push_back(TablePrinter::num(best_period, 0) + "us");
        table.addRow(row);
        if (best_period < periods_us[std::size(periods_us) - 1])
            ++interior;
    }
    table.print();
    std::printf("values are Mtx/s; the paper observes the peak at "
                "8-10 ms with its second-long runs; here %zu of %zu "
                "workloads peak before the longest scaled period.\n",
                interior, workloads.size());

    bench.write();
    return 0;
}
