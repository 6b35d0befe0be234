/**
 * @file
 * Reproduces paper Figure 13: YCSB throughput under HOOP as the
 * mapping table size sweeps 512 KB .. 8 MB.
 *
 * Expected shape (paper §IV-H): small tables force frequent GC to
 * drain mapping entries, hurting throughput; around the default 2 MB
 * the curve flattens because the periodic GC (10 ms) bounds how many
 * entries ever accumulate.
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    SystemConfig cfg = paperConfig();
    // A small LLC makes evictions (and therefore mapping entries)
    // frequent enough to exercise the table-pressure mechanism at
    // bench scale.
    cfg.cache.llcSize = kiB(256);
    Bench bench(argc, argv, "fig13_mapping_table",
                "Figure 13 - YCSB throughput vs mapping table size (HOOP)",
                cfg, benchTxPerCore());

    const std::uint64_t sizes[] = {kiB(8),   kiB(16),  kiB(32),
                                   kiB(64),  kiB(128), kiB(512),
                                   miB(2)};
    std::vector<std::uint64_t> pressure(std::size(sizes));

    auto sizeLabel = [](std::uint64_t bytes) {
        return bytes >= miB(1)
                   ? TablePrinter::num(
                         static_cast<double>(bytes) / miB(1), 0) + "MB"
                   : TablePrinter::num(
                         static_cast<double>(bytes) / kiB(1), 0) + "KB";
    };

    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        SystemConfig c = cfg;
        c.mappingTableBytes = sizes[i];
        bench.add(sizeLabel(sizes[i]), Scheme::Hoop, "ycsb",
                  paperParams(1024), c, bench.txPerCore(),
                  [&pressure, i](System &sys) {
                      const StatSet &st = sys.controller().stats();
                      pressure[i] = st.value("gc_mapping_full") +
                                    st.value("gc_pressure");
                  });
    }
    bench.run();

    TablePrinter table("Fig. 13: mapping table size sweep");
    table.setHeader({"table size", "tx/s (M)", "normalized",
                     "gc runs (pressure)"});
    const double base = bench.metrics(0).txPerSecond;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const double tput = bench.metrics(i).txPerSecond;
        table.addRow({sizeLabel(sizes[i]),
                      TablePrinter::num(tput / 1e6, 3),
                      TablePrinter::num(tput / base, 2),
                      std::to_string(pressure[i])});
    }
    table.print();
    std::printf("(the paper sweeps 512 KB-8 MB at full scale; the "
                "bench shrinks the LLC so the same pressure mechanism "
                "appears at smaller table sizes)\n");

    bench.write();
    return 0;
}
