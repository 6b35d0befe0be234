/**
 * @file
 * A persistent key-value store on HOOP: the YCSB scenario from the
 * paper's evaluation, driven by hand so the moving parts are visible.
 *
 * Eight cores each own a KvStore shard and run an 80/20 update/read
 * Zipfian mix in failure-atomic transactions, exactly like §IV-A's
 * setup; the demo then prints the controller-internal statistics that
 * explain where HOOP's efficiency comes from (packed slices, mapping
 * table hits, GC coalescing).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "hoop/hoop_controller.hh"
#include "workloads/registry.hh"

using namespace hoopnvm;

int
main()
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.homeBytes = miB(128);
    cfg.oopBytes = miB(16);
    cfg.auxBytes = miB(128) + miB(16);

    System sys(cfg, Scheme::Hoop);

    WorkloadParams params;
    params.valueBytes = 1024; // 1 KB key-value pairs (paper §IV-A)
    params.scale = 2048;      // records per shard

    std::printf("running YCSB (80%% updates, Zipfian 0.99, 1 KB "
                "values) on %u cores...\n",
                cfg.numCores);
    const RunOutcome out =
        runWorkload(sys, makeWorkload("ycsb", params), 400);

    const RunMetrics &m = out.metrics;
    std::printf("verified: %s\n", out.verified ? "yes" : "NO");
    std::printf("throughput         : %.2f Mtx/s\n",
                m.txPerSecond / 1e6);
    std::printf("critical path      : %.0f ns/tx\n",
                m.avgCriticalPathNs);
    std::printf("NVM write traffic  : %.0f B/tx\n", m.bytesWrittenPerTx);
    std::printf("NVM energy         : %.1f nJ/tx\n",
                m.energyPj / 1e3 /
                    static_cast<double>(m.transactions));
    std::printf("LLC miss ratio     : %.1f%%\n",
                m.llcMissRatio * 100.0);

    auto &ctrl = static_cast<HoopController &>(sys.controller());
    std::printf("\nHOOP internals:\n");
    std::printf("  data slices written   : %llu\n",
                static_cast<unsigned long long>(
                    ctrl.stats().value("data_slices")));
    std::printf("  eviction slices       : %llu\n",
                static_cast<unsigned long long>(
                    ctrl.stats().value("evict_slices")));
    std::printf("  commit records        : %llu\n",
                static_cast<unsigned long long>(
                    ctrl.stats().value("addr_slices")));
    std::printf("  mapping-table hits    : %llu\n",
                static_cast<unsigned long long>(
                    ctrl.stats().value("mapping_hits")));
    std::printf("  parallel reads        : %llu\n",
                static_cast<unsigned long long>(
                    ctrl.stats().value("parallel_reads")));
    std::printf("  GC runs               : %llu\n",
                static_cast<unsigned long long>(
                    ctrl.gc().stats().value("runs")));
    std::printf("  GC data reduction     : %.1f%% of tx bytes never "
                "written home (paper Table IV)\n",
                ctrl.gc().dataReductionRatio() * 100.0);
    return out.verified ? 0 : 1;
}
