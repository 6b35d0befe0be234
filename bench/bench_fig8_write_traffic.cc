/**
 * @file
 * Reproduces paper Figure 8: NVM write traffic per transaction,
 * normalized to the native system (lower is better).
 *
 * Expected shape (paper §IV-D): Opt-Redo and Opt-Undo write about
 * 2.1x / 1.9x more than HOOP; OSP, LSM and LAD sit 21.2% / 12.5% /
 * 11.6% above HOOP; HOOP is the lowest of the persistent schemes
 * thanks to word-granularity packing and GC coalescing.
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "fig8_write_traffic",
                "Figure 8 - write traffic to NVM", cfg, benchTxPerCore());
    const FigureMatrix matrix(bench, cfg);
    bench.run();

    std::map<Scheme, double> geo = matrix.printNormalized(
        "Fig. 8: NVM bytes written per tx, normalized to Ideal "
        "(lower is better)",
        Scheme::Native,
        [](const RunMetrics &m) { return m.bytesWrittenPerTx; });

    std::printf("paper-vs-measured traffic ratios (scheme / HOOP):\n");
    auto ratio = [&](Scheme s) { return geo[s] / geo[Scheme::Hoop]; };
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

    bench.write();
    return 0;
}
