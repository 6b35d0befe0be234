/**
 * @file
 * Ablation: HOOP's word-granularity data packing (paper §III-C,
 * Fig. 3). With packing disabled every updated word ships as its own
 * memory slice, modelling a controller that persists updates eagerly
 * at word granularity — the strawman the paper's design discussion
 * rejects ("persisting the data and metadata eagerly ... will
 * introduce extra write traffic", §III-A).
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "ablation_packing",
                "Ablation - data packing on/off (HOOP)", cfg,
                benchTxPerCore());

    const std::vector<const char *> wls = {"vector", "hashmap", "queue",
                                           "rbtree", "btree",  "ycsb"};

    // Cell 2w is workload w packed, cell 2w + 1 unpacked.
    for (const char *wl : wls) {
        const std::size_t vb = std::string(wl) == "ycsb" ? 512 : 64;
        for (const bool packing : {true, false}) {
            SystemConfig c = cfg;
            c.dataPacking = packing;
            bench.add(std::string(wl) + (packing ? "/packed" : "/unpacked"),
                      Scheme::Hoop, wl, paperParams(vb), c,
                      bench.txPerCore());
        }
    }
    bench.run();

    TablePrinter table("write traffic and throughput, packing vs none");
    table.setHeader({"workload", "bytes/tx packed", "bytes/tx unpacked",
                     "traffic ratio", "tput ratio (packed/unpacked)"});
    for (std::size_t w = 0; w < wls.size(); ++w) {
        const RunMetrics &a = bench.metrics(2 * w);
        const RunMetrics &b = bench.metrics(2 * w + 1);
        table.addRow(
            {wls[w], TablePrinter::num(a.bytesWrittenPerTx, 0),
             TablePrinter::num(b.bytesWrittenPerTx, 0),
             TablePrinter::num(b.bytesWrittenPerTx / a.bytesWrittenPerTx,
                               2) + "x",
             TablePrinter::num(a.txPerSecond / b.txPerSecond, 2) + "x"});
    }
    table.print();
    std::printf("packing should cut slice traffic by up to 8x on "
                "multi-word updates.\n");

    bench.write();
    return 0;
}
