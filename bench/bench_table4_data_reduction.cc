/**
 * @file
 * Reproduces paper Table IV: the GC data-reduction ratio (fraction of
 * transaction-modified bytes that coalescing keeps from being written
 * back to the home region) as the number of transactions grows from
 * 10^1 to 10^4.
 *
 * Expected shape (§IV-D): the ratio climbs from ~25% at 10 txs to
 * >80% at 10^4 txs as repeated updates to hot data coalesce.
 */

#include <algorithm>

#include "bench_common.hh"

#include "hoop/hoop_controller.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    SystemConfig cfg = paperConfig();
    cfg.numCores = 2; // Table IV counts transactions, not threads
    // Each cell sizes its own run from its transaction count.
    Bench bench(argc, argv, "table4_data_reduction",
                "Table IV - GC data reduction vs transaction count", cfg,
                0);

    const std::uint64_t tx_counts[] = {10, 100, 1000, 10000};
    const char *wls[] = {"vector", "queue",  "rbtree", "btree",
                         "hashmap", "ycsb",  "tpcc"};

    // reduction[tx_count][workload], percent.
    std::vector<std::vector<double>> reduction(
        std::size(tx_counts), std::vector<double>(std::size(wls)));

    for (std::size_t t = 0; t < std::size(tx_counts); ++t) {
        const std::uint64_t n = tx_counts[t];
        for (std::size_t w = 0; w < std::size(wls); ++w) {
            WorkloadParams p = paperParams(64);
            // Keep the structure small relative to the tx count so
            // update locality (the source of coalescing) matches the
            // paper's setup, but large enough that insert-heavy
            // workloads never exhaust their key space.
            p.scale = std::max<std::uint64_t>(256, n / 4);
            bench.add(std::string(wls[w]) + "/" + std::to_string(n),
                      Scheme::Hoop, wls[w], p, cfg, n / cfg.numCores + 1,
                      [&reduction, t, w](System &sys) {
                          auto &ctrl = static_cast<HoopController &>(
                              sys.controller());
                          reduction[t][w] =
                              ctrl.gc().dataReductionRatio() * 100.0;
                      });
        }
    }
    bench.run();

    TablePrinter table("Table IV: average data reduction in GC");
    table.setHeader({"tx", "vector", "queue", "rbtree", "btree",
                     "hashmap", "ycsb", "tpcc"});
    for (std::size_t t = 0; t < std::size(tx_counts); ++t) {
        std::vector<std::string> row = {std::to_string(tx_counts[t])};
        for (std::size_t w = 0; w < std::size(wls); ++w)
            row.push_back(TablePrinter::num(reduction[t][w], 1) + "%");
        table.addRow(row);
    }
    table.print();
    std::printf("paper Table IV: ~25%% at 10 tx, ~50%% at 100, ~73%% "
                "at 1000, ~83%% at 10000\n");

    bench.write();
    return 0;
}
