/**
 * @file
 * Reproduces paper Figure 12: YCSB throughput (1 KB values, 80%
 * updates) under HOOP as (a) NVM read latency sweeps 50..250 ns with
 * write latency fixed at 150 ns, and (b) write latency sweeps
 * 150..350 ns with read latency fixed at 50 ns.
 *
 * Expected shape (paper §IV-H): throughput decreases monotonically as
 * either latency grows, since both the load/store path and GC slow
 * down.
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "fig12_nvm_latency",
                "Figure 12 - YCSB throughput vs NVM latency (HOOP)", cfg,
                benchTxPerCore());

    const WorkloadParams params = paperParams(1024);
    constexpr std::size_t kPoints = 5;
    const double read_ns[kPoints] = {50, 100, 150, 200, 250};
    const double write_ns[kPoints] = {150, 200, 250, 300, 350};

    // The read sweep's cells come first, then the write sweep's.
    for (const double ns : read_ns) {
        SystemConfig c = cfg;
        c.nvm.readLatency = nsToTicks(ns);
        bench.add("read/" + TablePrinter::num(ns, 0) + "ns", Scheme::Hoop,
                  "ycsb", params, c, bench.txPerCore());
    }
    for (const double ns : write_ns) {
        SystemConfig c = cfg;
        c.nvm.writeLatency = nsToTicks(ns);
        // Slower cells also hold the bank longer: scale the write
        // occupancy with the array write time.
        c.nvm.writeBusy = nsToTicks(ns / 7.5);
        bench.add("write/" + TablePrinter::num(ns, 0) + "ns",
                  Scheme::Hoop, "ycsb", params, c, bench.txPerCore());
    }
    bench.run();

    auto sweep = [&](const std::string &title, const char *column,
                     const double *ns, std::size_t first) {
        TablePrinter t(title);
        t.setHeader({column, "tx/s (M)", "normalized"});
        const double base = bench.metrics(first).txPerSecond;
        for (std::size_t i = 0; i < kPoints; ++i) {
            const double tput = bench.metrics(first + i).txPerSecond;
            t.addRow({TablePrinter::num(ns[i], 0) + "ns",
                      TablePrinter::num(tput / 1e6, 3),
                      TablePrinter::num(tput / base, 2)});
        }
        t.print();
    };
    sweep("Fig. 12a: read latency sweep (write fixed at 150 ns)",
          "read latency", read_ns, 0);
    sweep("Fig. 12b: write latency sweep (read fixed at 50 ns)",
          "write latency", write_ns, kPoints);

    bench.write();
    return 0;
}
