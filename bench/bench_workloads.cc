/**
 * @file
 * Reproduces paper Table III: the benchmark suite's per-transaction
 * store/load footprint, measured against the paper's declared ranges.
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "workloads",
                "Table III - benchmark suite footprint", cfg,
                benchTxPerCore());

    struct Row
    {
        const char *name;
        std::size_t valueBytes;
        const char *paperStores;
        const char *paperMix;
    };
    const Row rows[] = {
        {"vector", 64, "8", "100%/0%"},
        {"hashmap", 64, "8", "100%/0%"},
        {"queue", 64, "4", "100%/0%"},
        {"rbtree", 64, "2-10", "100%/0%"},
        {"btree", 64, "2-12", "100%/0%"},
        {"ycsb", 512, "8-32", "80%/20%"},
        {"tpcc", 64, "10-35", "40%/60%"},
    };
    constexpr std::size_t kRows = std::size(rows);

    // Word stores and loads of each row's cell.
    std::vector<double> stores(kRows);
    std::vector<double> loads(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
        const Row &r = rows[i];
        bench.add(r.name, Scheme::Native, r.name,
                  paperParams(r.valueBytes), cfg, bench.txPerCore(),
                  [&stores, &loads, i](System &sys) {
                      const StatSet &st = sys.caches().stats();
                      stores[i] = static_cast<double>(st.value("stores"));
                      loads[i] = static_cast<double>(st.value("loads"));
                  });
    }
    bench.run();

    TablePrinter table("Table III: measured footprint per transaction");
    table.setHeader({"workload", "paper stores/tx", "measured ops/tx",
                     "paper W/R", "measured W/R"});

    for (std::size_t i = 0; i < kRows; ++i) {
        const Row &r = rows[i];
        const double tx =
            static_cast<double>(bench.metrics(i).transactions);
        // Item-level operation counts: word stores divided by the
        // words per item give the paper's "stores/tx" notion.
        const double item_words = static_cast<double>(
            r.valueBytes) / kWordSize;
        const double ops_per_tx = stores[i] / tx / item_words;
        const double wr =
            100.0 * stores[i] / std::max(1.0, stores[i] + loads[i]);
        table.addRow({r.name, r.paperStores,
                      TablePrinter::num(ops_per_tx, 1), r.paperMix,
                      TablePrinter::num(wr, 0) + "%/" +
                          TablePrinter::num(100.0 - wr, 0) + "%"});
    }
    table.print();
    std::printf("(measured ops/tx counts item-size write bursts; tree "
                "workloads also issue single-word metadata stores, so "
                "their value exceeds 1 accordingly)\n");

    bench.write();
    return 0;
}
