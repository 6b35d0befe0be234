/**
 * @file
 * Side-by-side comparison of all seven systems (HOOP, the five
 * reconstructed baselines, and the Ideal native machine) on one
 * workload — a miniature of the paper's Figs. 7/8 in a single run.
 *
 *   $ ./scheme_comparison [workload]    (default: hashmap)
 *
 * Exits 1 if any scheme's final image fails verification.
 */

#include <cstdio>
#include <string>

#include "stats/table.hh"
#include "workloads/registry.hh"

using namespace hoopnvm;

int
main(int argc, char **argv)
{
    const std::string wl = argc > 1 ? argv[1] : "hashmap";

    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.homeBytes = miB(128);
    cfg.oopBytes = miB(16);
    cfg.auxBytes = miB(128) + miB(16);

    WorkloadParams params;
    params.valueBytes = 64;
    params.scale = 1024;

    std::printf("comparing schemes on '%s' (%u cores, 300 tx/core)\n\n",
                wl.c_str(), cfg.numCores);

    TablePrinter table("scheme comparison");
    table.setHeader({"scheme", "Mtx/s", "critical path ns",
                     "NVM B/tx", "energy nJ/tx", "verified"});

    bool all_verified = true;
    for (Scheme s : kAllSchemes) {
        System sys(cfg, s);
        const RunOutcome out =
            runWorkload(sys, makeWorkload(wl, params), 300);
        all_verified = all_verified && out.verified;
        const RunMetrics &m = out.metrics;
        table.addRow(
            {schemeName(s), TablePrinter::num(m.txPerSecond / 1e6, 2),
             TablePrinter::num(m.avgCriticalPathNs, 0),
             TablePrinter::num(m.bytesWrittenPerTx, 0),
             TablePrinter::num(m.energyPj / 1e3 /
                                   static_cast<double>(m.transactions),
                               1),
             out.verified ? "yes" : "NO"});
    }
    table.print();
    std::printf("HOOP should lead every persistent scheme on "
                "throughput while staying closest to Ideal.\n");
    return all_verified ? 0 : 1;
}
