/**
 * @file
 * Crash-recovery walkthrough: a persistent B-tree is grown in
 * failure-atomic transactions, power fails mid-insert, and HOOP's
 * multi-threaded recovery restores exactly the committed state —
 * including the B-tree's structural invariants.
 *
 * The crash is injected with System::scheduleCrashAfterStores, the
 * same hook the repository's property tests sweep over thousands of
 * crash points.
 */

#include <cstdio>

#include "workloads/registry.hh"

using namespace hoopnvm;

int
main()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(64);
    cfg.oopBytes = miB(8);
    cfg.auxBytes = miB(64) + miB(8);

    System sys(cfg, Scheme::Hoop);

    WorkloadParams params;
    params.valueBytes = 64;
    params.scale = 512;
    RunDriver trees(sys, makeWorkload("btree", params));

    std::printf("growing two B-trees, 200 committed transactions "
                "each...\n");
    for (int i = 0; i < 200; ++i) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            trees.wl(c).runTransaction(i);
    }

    // Pull the plug 23 stores into the next batch — mid-insert, with
    // node splits potentially half-written in the caches.
    std::printf("power failure lands mid-transaction...\n");
    sys.scheduleCrashAfterStores(23);
    bool crashed = false;
    try {
        for (int i = 200; i < 240; ++i) {
            for (unsigned c = 0; c < cfg.numCores; ++c)
                trees.wl(c).runTransaction(i);
        }
    } catch (const SimCrash &) {
        crashed = true;
    }
    if (!crashed) {
        std::printf("crash point never hit\n");
        return 1;
    }

    sys.crash(); // caches and controller SRAM are gone
    const Tick t = sys.recover(/*threads=*/4);
    std::printf("recovery replayed the OOP region in %.2f modelled "
                "us using 4 threads\n",
                ticksToNs(t) / 1000.0);

    bool ok = true;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const bool good = trees.wl(c).verify();
        std::printf("B-tree on core %u: %s (keys, order, payload "
                    "versions all checked)\n",
                    c, good ? "intact" : "CORRUPT");
        ok = ok && good;
    }
    std::printf(ok ? "the torn transaction vanished; every committed "
                     "insert survived\n"
                   : "ATOMIC DURABILITY VIOLATION\n");
    return ok ? 0 : 1;
}
