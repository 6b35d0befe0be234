/**
 * @file
 * Reproduces paper Figure 11: time to recover a ~1 GB OOP region as
 * the number of recovery threads (1..16) and the NVM bandwidth
 * (10/15/20/25 GB/s) vary.
 *
 * Both axes enter only the closed-form recovery time
 * (RecoveryManager::time), so the bench fills, crashes and recovers
 * one system and evaluates that formula on the scan's result for each
 * of the 20 cells: the figure's shape is the model's, not an emergent
 * measurement.
 *
 * Expected shape (paper §IV-G): recovery time falls with added threads
 * until the NVM channel saturates; at 25 GB/s recovering 1 GB takes
 * ~47 ms, about 2.3x faster than at 10 GB/s.
 */

#include "bench_common.hh"

#include <chrono>

#include "hoop/hoop_controller.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

namespace
{

/** Fill the OOP region with committed transactions, then crash. */
void
fillOopRegion(System &sys, std::uint64_t target_slices)
{
    auto &ctrl = static_cast<HoopController &>(sys.controller());
    std::uint64_t addr_cursor = 0;
    std::uint64_t produced = 0;
    const std::uint64_t words_per_tx = 64;
    while (produced < target_slices) {
        sys.txBegin(0);
        for (std::uint64_t i = 0; i < words_per_tx; ++i) {
            sys.storeWord(0, (addr_cursor * 8) %
                                 (sys.config().homeBytes - 64),
                          addr_cursor);
            ++addr_cursor;
        }
        sys.txEnd(0);
        produced = ctrl.stats().value("data_slices") +
                   ctrl.stats().value("addr_slices");
    }
    sys.crash();
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg = paperConfig();
    // 1 GB region at full scale; functionally we fill a 64 MB region
    // and the timing model scales with the scanned bytes either way.
    cfg.homeBytes = miB(512);
    cfg.oopBytes = miB(64);
    cfg.auxBytes = miB(512) + miB(64);
    cfg.gcPeriod = nsToTicks(1e12); // keep everything in the region
    // The fill below sizes its own run: no per-core transactions.
    Bench bench(argc, argv, "fig11_recovery",
                "Figure 11 - recovery time vs threads and NVM bandwidth",
                cfg, 0);

    // One fill at the configured 25 GB/s serves all four bandwidths,
    // because no state change in the fill depends on time: periodic
    // GC never fires (gcPeriod is 1e12 ns; only region-pressure GC
    // runs), fault tolerance is off, and one core issues every
    // transaction. The crashed image, and so the scan's result, is
    // the same at every bandwidth
    // (RecoveryFixture.TimingScalesWithBandwidthAndThreads checks
    // this). The fill is the bench's whole host cost, so it gets its
    // own host-only record.
    const std::uint64_t target_slices =
        cfg.oopBytes / MemorySlice::kSliceBytes * 9 / 10;
    // lint: nondet-api-ok (host wall-clock of the fill for the report; never feeds simulated state)
    const auto fill_start = std::chrono::steady_clock::now();
    RecoveryResult rec;
    {
        System sys(cfg, Scheme::Hoop);
        fillOopRegion(sys, target_slices);
        sys.recover(16);
        rec = static_cast<HoopController &>(sys.controller())
                  .lastRecovery();
    }
    bench.addTimed("fill+recovery",
                   std::chrono::duration<double>(
                       // lint: nondet-api-ok (host wall-clock of the fill for the report; never feeds simulated state)
                       std::chrono::steady_clock::now() - fill_start)
                       .count(),
                   {});

    // Cell b * threads + t: bandwidth b with recovery thread count t;
    // its simTicks is the modelled recovery time.
    const double bandwidths[] = {10e9, 15e9, 20e9, 25e9};
    const unsigned threads[] = {1, 2, 4, 8, 16};
    for (double bw : bandwidths) {
        for (unsigned thr : threads) {
            const std::string label =
                TablePrinter::num(bw / 1e9, 0) + "GB/s/" +
                std::to_string(thr) + "thr";
            bench.add(label, [&, bw, thr](RunMetrics &m) {
                NvmTiming timing = cfg.nvm;
                timing.bandwidthBytesPerSec = bw;
                m.simTicks = RecoveryManager::time(rec, thr, timing);
            });
        }
    }
    bench.run();
    auto recoveryMs = [&](std::size_t b, std::size_t t) {
        return ticksToMs(
            bench.metrics(b * std::size(threads) + t).simTicks);
    };

    // What the crashed region held: the slices the scan accepted. The
    // fill produced more, but region-pressure GC reclaimed part of it.
    const double region_mib =
        static_cast<double>(rec.slicesScanned * MemorySlice::kSliceBytes) /
        static_cast<double>(miB(1));
    TablePrinter table("Fig. 11: modelled recovery time (ms), ~" +
                       TablePrinter::num(region_mib, 1) +
                       " MB of committed OOP slices");
    std::vector<std::string> header = {"bandwidth"};
    for (unsigned t : threads)
        header.push_back(std::to_string(t) + "thr");
    table.setHeader(header);

    for (std::size_t b = 0; b < std::size(bandwidths); ++b) {
        std::vector<std::string> row = {
            TablePrinter::num(bandwidths[b] / 1e9, 0) + "GB/s"};
        for (std::size_t t = 0; t < std::size(threads); ++t)
            row.push_back(TablePrinter::num(recoveryMs(b, t), 2));
        table.addRow(row);
    }
    table.print();

    const double t_10_16 = recoveryMs(0, 4);
    const double t_25_16 = recoveryMs(3, 4);

    std::printf("scaled to the paper's 1 GB region this corresponds to "
                "%.0f ms at 25 GB/s (paper: 47 ms); 10 GB/s is %.1fx "
                "slower (paper: 2.3x)\n",
                t_25_16 * (1024.0 / region_mib), t_10_16 / t_25_16);

    // Integrity verification overhead: every scanned slice is
    // CRC-checked before any of its fields are trusted. The charge is
    // CPU work, so it hides behind the channel once the scan is
    // bandwidth-bound — the visible cost is the single-thread delta.
    std::printf("\nintegrity (last run, 16 threads @ 25 GB/s): "
                "%llu slices scanned, %llu rejected, %llu torn commits, "
                "%llu bit flips, %llu headers rejected, %llu incomplete "
                "tx vetoed\n",
                static_cast<unsigned long long>(rec.slicesScanned),
                static_cast<unsigned long long>(rec.slicesRejected),
                static_cast<unsigned long long>(rec.tornCommitsDetected),
                static_cast<unsigned long long>(rec.bitFlipsDetected),
                static_cast<unsigned long long>(rec.headersRejected),
                static_cast<unsigned long long>(rec.incompleteTxVetoed));
    std::printf("CRC verification cost: %.2f ms of CPU work total "
                "(%.2f ms per thread at 16 threads, %.1f%% of the "
                "recovery time)\n",
                ticksToMs(rec.crcVerifyCost),
                ticksToMs(rec.crcVerifyCost / 16),
                rec.time > 0 ? 100.0 *
                                   static_cast<double>(rec.crcVerifyCost /
                                                       16) /
                                   static_cast<double>(rec.time)
                             : 0.0);

    for (std::size_t i = 0; i < bench.cells(); ++i) {
        bench.value(i, "recovery_ms",
                    ticksToMs(bench.metrics(i).simTicks));
    }
    bench.write();
    return 0;
}
