/**
 * @file
 * Reproduces paper Figure 9: NVM access energy per transaction (Table
 * II energy parameters), normalized to the native system.
 *
 * Expected shape (paper §IV-E): HOOP achieves the best energy
 * efficiency of the persistent schemes even though its GC and parallel
 * reads add read traffic, because writes cost ~5x more energy per bit
 * than reads; paper reductions vs OSP/LSM/LAD are 37.6%/29.6%/10.8%.
 */

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    Bench bench(argc, argv, "fig9_energy",
                "Figure 9 - NVM energy consumption", cfg,
                benchTxPerCore());
    const FigureMatrix matrix(bench, cfg);
    bench.run();

    std::map<Scheme, double> geo = matrix.printNormalized(
        "Fig. 9: NVM energy per tx, normalized to Ideal "
        "(lower is better)",
        Scheme::Native, [](const RunMetrics &m) {
            return m.energyPj / static_cast<double>(m.transactions);
        });

    auto saving = [&](Scheme s) {
        return (1.0 - geo[Scheme::Hoop] / geo[s]) * 100.0;
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
