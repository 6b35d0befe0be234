/**
 * @file
 * Ablation: HOOP's GC data coalescing (paper §III-E). With coalescing
 * disabled the collector applies every scanned word update to the home
 * region individually in age order — the "migrating these old data
 * versions sequentially will cause large write traffic" problem the
 * paper's Algorithm 1 exists to avoid.
 */

#include "bench_common.hh"

#include "hoop/hoop_controller.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "ablation_coalescing",
                "Ablation - GC coalescing on/off (HOOP)", cfg,
                benchTxPerCore());

    const std::vector<const char *> wls = {"vector", "hashmap", "queue",
                                           "rbtree", "btree",  "ycsb"};

    // Cell 2w is workload w coalesced, cell 2w + 1 the raw run; each
    // records the GC's home-region line writes.
    std::vector<std::uint64_t> home_lines(2 * wls.size());
    for (std::size_t w = 0; w < wls.size(); ++w) {
        const char *wl = wls[w];
        const std::size_t vb = std::string(wl) == "ycsb" ? 512 : 64;
        WorkloadParams p = paperParams(vb);
        p.scale = 512; // hot working set: coalescing opportunity

        for (const bool coalesce : {true, false}) {
            SystemConfig c = cfg;
            c.gcCoalescing = coalesce;
            const std::size_t cell = 2 * w + (coalesce ? 0 : 1);
            bench.add(std::string(wl) +
                          (coalesce ? "/coalesced" : "/raw"),
                      Scheme::Hoop, wl, p, c, bench.txPerCore(),
                      [&home_lines, cell](System &sys) {
                          auto &ctrl = static_cast<HoopController &>(
                              sys.controller());
                          home_lines[cell] = ctrl.gc().stats().value(
                              "home_lines_written");
                      });
        }
    }
    bench.run();

    TablePrinter table("GC migration traffic, coalescing vs none");
    table.setHeader({"workload", "home writes coalesced",
                     "home writes raw", "reduction", "bytes/tx ratio"});
    for (std::size_t w = 0; w < wls.size(); ++w) {
        const std::uint64_t on = home_lines[2 * w];
        const std::uint64_t off = home_lines[2 * w + 1];
        table.addRow(
            {wls[w], std::to_string(on), std::to_string(off),
             TablePrinter::num(
                 off > 0
                     ? 100.0 * (1.0 - static_cast<double>(on) /
                                          static_cast<double>(off))
                     : 0.0,
                 1) + "%",
             TablePrinter::num(
                 bench.metrics(2 * w + 1).bytesWrittenPerTx /
                     bench.metrics(2 * w).bytesWrittenPerTx,
                 2) + "x"});
    }
    table.print();

    bench.write();
    return 0;
}
