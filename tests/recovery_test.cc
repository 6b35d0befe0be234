/**
 * @file
 * Tests for HOOP's crash recovery (§III-F): committed transactions
 * are replayed exactly, uncommitted ones discarded, intra-transaction
 * order preserved, thread counts agree, sequences restart above the
 * GC watermark, and the timing formula, evaluated on one scan, gives
 * each bandwidth's and thread count's recovery time (Fig. 11), with
 * the merge partitioned across the recovery threads by home line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "hoop/hoop_controller.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
recConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.oopBlockBytes = miB(1);
    cfg.auxBytes = miB(32);
    return cfg;
}

/**
 * The recovery time with every word's merge step charged to one
 * thread, whatever the thread count: the bound the partitioned merge
 * must meet at one thread and stay under at more.
 */
Tick
serialMergeTime(const RecoveryResult &r, unsigned threads,
                const NvmTiming &timing)
{
    const Tick cpu = (r.slicesScanned + threads - 1) / threads *
                         (RecoveryManager::kPerSliceCpuCost +
                          RecoveryManager::kCrcVerifyCpuCost) +
                     r.distinctWords * RecoveryManager::kMergeStepCpuCost;
    return std::max(timing.transferTicks(r.bytesScanned), cpu) +
           timing.readLatency + timing.writeLatency;
}

/**
 * The partitioned merge against the serial one on @p r: equal at one
 * thread, never above it at 2-16 threads, and never slower when the
 * thread count doubles.
 */
void
expectPartitionedMergeBounds(const RecoveryResult &r,
                             const NvmTiming &timing)
{
    std::uint64_t words = 0;
    for (std::uint64_t w : r.bucketWords)
        words += w;
    EXPECT_EQ(words, r.distinctWords);
    for (unsigned thr = 1; thr <= 16; ++thr) {
        const Tick t = RecoveryManager::time(r, thr, timing);
        if (thr == 1) {
            EXPECT_EQ(t, serialMergeTime(r, 1, timing));
        } else {
            EXPECT_LE(t, serialMergeTime(r, thr, timing)) << thr;
        }
        if (thr <= 8) {
            EXPECT_LE(RecoveryManager::time(r, 2 * thr, timing), t) << thr;
        }
    }
}

struct RecoveryFixture : ::testing::Test
{
    RecoveryFixture()
        : cfg(recConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(nvm, cfg)
    {
    }

    void
    store(CoreId core, Addr a, std::uint64_t v)
    {
        std::uint8_t b[8];
        std::memcpy(b, &v, 8);
        ctrl.storeWord(core, a, b, 0);
    }

    SystemConfig cfg;
    NvmDevice nvm;
    HoopController ctrl;
};

TEST_F(RecoveryFixture, ReplaysCommittedTransaction)
{
    ctrl.txBegin(0, 0);
    for (unsigned i = 0; i < 12; ++i)
        store(0, 0x1000 + 8 * i, 100 + i);
    ctrl.txEnd(0, 0);

    ctrl.crash();
    ctrl.recover(2);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(nvm.peekWord(0x1000 + 8 * i), 100u + i);
}

TEST_F(RecoveryFixture, DiscardsUncommittedTransaction)
{
    ctrl.txBegin(0, 0);
    for (unsigned i = 0; i < 12; ++i) // > 8 forces a flushed slice
        store(0, 0x2000 + 8 * i, 55 + i);
    // No txEnd: crash strikes mid-transaction.
    ctrl.crash();
    ctrl.recover(2);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(nvm.peekWord(0x2000 + 8 * i), 0u);
}

TEST_F(RecoveryFixture, LastWriteInTransactionWins)
{
    ctrl.txBegin(0, 0);
    // Write the same word 20 times; slices flush every 8 words of
    // distinct addresses, so interleave a second word to force flushes.
    for (unsigned i = 0; i < 20; ++i) {
        store(0, 0x3000, 100 + i);
        store(0, 0x3000 + 8 * ((i % 7) + 1), i);
    }
    ctrl.txEnd(0, 0);
    ctrl.crash();
    ctrl.recover(1);
    EXPECT_EQ(nvm.peekWord(0x3000), 119u);
}

TEST_F(RecoveryFixture, CommitOrderAcrossCores)
{
    // Core 0 commits first, core 1 second; both write the same word.
    // (Apps serialize such conflicts with locks; the recovery contract
    // is that the later commit wins.)
    ctrl.txBegin(0, 0);
    store(0, 0x4000, 1);
    ctrl.txEnd(0, 0);
    ctrl.txBegin(1, 0);
    store(1, 0x4000, 2);
    ctrl.txEnd(1, 0);

    ctrl.crash();
    ctrl.recover(4);
    EXPECT_EQ(nvm.peekWord(0x4000), 2u);
}

TEST_F(RecoveryFixture, ThreadCountsAgreeOnFinalState)
{
    // Build a moderate workload, snapshot recovery with 1 thread,
    // rebuild it identically and recover with 8 threads: same state.
    auto run_workload = [&](HoopController &c) {
        for (unsigned t = 0; t < 40; ++t) {
            const CoreId core = t % 4;
            c.txBegin(core, 0);
            for (unsigned i = 0; i < 10; ++i) {
                std::uint64_t v = t * 100 + i;
                std::uint8_t b[8];
                std::memcpy(b, &v, 8);
                c.storeWord(core,
                            0x8000 + 8 * ((t * 7 + i * 3) % 64), b, 0);
            }
            c.txEnd(core, 0);
        }
    };

    run_workload(ctrl);
    ctrl.crash();
    ctrl.recover(1);
    std::vector<std::uint64_t> one(64);
    for (unsigned i = 0; i < 64; ++i)
        one[i] = nvm.peekWord(0x8000 + 8 * i);

    NvmDevice nvm8(cfg.nvmCapacity(), cfg.nvm);
    HoopController ctrl8(nvm8, cfg);
    run_workload(ctrl8);
    ctrl8.crash();
    ctrl8.recover(8);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(nvm8.peekWord(0x8000 + 8 * i), one[i]) << i;
}

TEST_F(RecoveryFixture, RecoveryIsIdempotentAfterGc)
{
    // GC migrates data home, then a crash: recovery of the remaining
    // region must not corrupt the migrated state.
    ctrl.txBegin(0, 0);
    for (unsigned i = 0; i < 8; ++i)
        store(0, 0x5000 + 8 * i, 10 + i);
    ctrl.txEnd(0, 0);
    ctrl.drain(0); // GC everything home

    ctrl.txBegin(0, 0);
    store(0, 0x5000, 99);
    ctrl.txEnd(0, 0);

    ctrl.crash();
    ctrl.recover(2);
    EXPECT_EQ(nvm.peekWord(0x5000), 99u);
    for (unsigned i = 1; i < 8; ++i)
        EXPECT_EQ(nvm.peekWord(0x5000 + 8 * i), 10u + i);
}

TEST_F(RecoveryFixture, RegionClearedAfterRecovery)
{
    ctrl.txBegin(0, 0);
    store(0, 0x6000, 5);
    ctrl.txEnd(0, 0);
    ctrl.crash();
    ctrl.recover(1);
    EXPECT_EQ(ctrl.region().freeBlocks(), ctrl.region().numBlocks());
    EXPECT_EQ(ctrl.mappingTable().size(), 0u);

    // The system keeps working after recovery; ids do not repeat.
    const TxId tx = ctrl.txBegin(0, 0);
    store(0, 0x6000, 6);
    ctrl.txEnd(0, 0);
    EXPECT_TRUE(ctrl.isCommitted(tx));
    ctrl.drain(0);
    EXPECT_EQ(nvm.peekWord(0x6000), 6u);
}

TEST_F(RecoveryFixture, CommitsAfterRecoveringADrainedRegionSurvive)
{
    // Regression: recovery restarted the slice sequence one past the
    // newest slice it scanned. Over a region GC had fully drained it
    // scanned none and restarted at 1, below the durable GC watermark,
    // so the next recovery skipped every block opened since as
    // recycled and lost their commits.
    ctrl.txBegin(0, 0);
    store(0, 0x7000, 1);
    ctrl.txEnd(0, 0);
    ctrl.drain(0); // GC everything home; the watermark passes it all
    ctrl.crash();
    ctrl.recover(1);

    ctrl.txBegin(0, 0);
    store(0, 0x7000, 2);
    ctrl.txEnd(0, 0);
    ctrl.crash();
    ctrl.recover(1);
    EXPECT_EQ(ctrl.lastRecovery().blocksSkippedByWatermark, 0u);
    EXPECT_EQ(nvm.peekWord(0x7000), 2u);
}

TEST(GcBoundaryRecovery, ChainSpanningCollectedPrefixReplays)
{
    // A transaction whose slice chain starts in one block and commits
    // in the next, where GC collects only the first block: the commit
    // record then counts more Data slices than recovery can find, with
    // no corruption anywhere. The missing prefix is already home (GC
    // migrated it before recycling), so recovery must replay the
    // survivors rather than veto the transaction — vetoing would leave
    // it half-applied.
    SystemConfig cfg = recConfig();
    cfg.oopBlockBytes = kiB(8); // 63 slice slots per block
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    HoopController ctrl(nvm, cfg);

    auto store = [&](Addr a, std::uint64_t v) {
        std::uint8_t b[8];
        std::memcpy(b, &v, 8);
        ctrl.storeWord(0, a, b, 0);
    };

    // 31 two-slice transactions (one Data slice + one commit record)
    // fill slots 1..62 of block 0, leaving exactly one slot.
    for (unsigned t = 0; t < 31; ++t) {
        ctrl.txBegin(0, 0);
        for (unsigned i = 0; i < 8; ++i)
            store(0x1000 + 8 * (t * 8 + i), 1000 + t * 8 + i);
        ctrl.txEnd(0, 0);
    }
    // The spanning transaction: its first Data slice takes block 0's
    // last slot (sealing it Full), its second Data slice and commit
    // record land in block 1.
    ctrl.txBegin(0, 0);
    for (unsigned i = 0; i < 16; ++i)
        store(0x8000 + 8 * i, 7000 + i);
    ctrl.txEnd(0, 0);

    // GC collects exactly the all-committed Full prefix: block 0.
    ctrl.gc().run(0);
    ASSERT_EQ(ctrl.region().block(0).state, BlockState::Unused);
    ASSERT_NE(ctrl.region().block(1).state, BlockState::Unused);

    ctrl.crash();
    ctrl.recover(2);
    const RecoveryResult &r = ctrl.lastRecovery();
    EXPECT_EQ(r.incompleteTxVetoed, 0u);
    EXPECT_EQ(r.gcTrimmedTxReplayed, 1u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(nvm.peekWord(0x8000 + 8 * i), 7000u + i) << i;
    for (unsigned t = 0; t < 31; ++t) {
        for (unsigned i = 0; i < 8; ++i) {
            EXPECT_EQ(nvm.peekWord(0x1000 + 8 * (t * 8 + i)),
                      1000u + t * 8 + i);
        }
    }
}

/**
 * Recovery of a hand-built image of four 63-slot blocks:
 *   block 0  below the GC watermark (a recycle that tore back to its
 *            Full header),
 *   block 1  recycled: a valid Unused header,
 *   block 2  Full; its 15th slot, a commit record, is torn,
 *   block 3  open: two slices, then an unwritten slot.
 * The last transaction, in block 3, stores @p last_words words of its
 * line over a home copy whose words read 0xdead0000 + w. Returns the
 * replayed lines in *lines, and the device in *home for checking.
 */
RecoveryResult
recoverHandBuiltImage(unsigned last_words, std::vector<Addr> *lines,
                      std::unique_ptr<NvmDevice> *home)
{
    SystemConfig cfg = recConfig();
    cfg.oopBytes = kiB(32);
    cfg.oopBlockBytes = kiB(8);
    auto nvm = std::make_unique<NvmDevice>(cfg.nvmCapacity(), cfg.nvm);
    HoopController ctrl(*nvm, cfg);
    OopRegion &region = ctrl.region();
    EXPECT_EQ(region.numBlocks(), 4u);
    EXPECT_EQ(region.slicesPerBlock(), 63u);

    auto tx = [&](Addr base, unsigned words) {
        ctrl.txBegin(0, 0);
        for (unsigned i = 0; i < words; ++i) {
            const std::uint64_t v = base + 8 * i;
            std::uint8_t b[8];
            std::memcpy(b, &v, 8);
            ctrl.storeWord(0, base + 8 * i, b, 0);
        }
        ctrl.txEnd(0, 0);
    };

    // 42 three-slice transactions (two Data slices and a commit
    // record) fill blocks 0 and 1; the 43rd opens block 2 in slots
    // 1-3, sealing block 1 Full.
    for (unsigned t = 0; t < 43; ++t)
        tx(0x10000 + 2 * kCacheLineSize * t, 16);
    std::uint8_t full_header[kCacheLineSize];
    nvm->peek(region.blockBase(0), full_header, kCacheLineSize);
    ctrl.gc().run(0);
    EXPECT_EQ(region.block(0).state, BlockState::Unused);
    EXPECT_EQ(region.block(1).state, BlockState::Unused);
    EXPECT_EQ(region.block(2).state, BlockState::InUse);
    nvm->poke(region.blockBase(0), full_header, kCacheLineSize);

    // 30 two-slice transactions take block 2's slots 4-63 (the
    // sixth one's commit record sits in slot 15), and a 31st opens
    // block 3. Flip one payload byte of slot 15.
    const Addr last = 0x40000 + kCacheLineSize * 30;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        nvm->pokeWord(last + 8 * w, 0xdead0000 + w);
    for (unsigned t = 0; t < 30; ++t)
        tx(0x40000 + kCacheLineSize * t, 8);
    tx(last, last_words);
    EXPECT_EQ(region.block(2).state, BlockState::Full);
    EXPECT_EQ(region.block(3).state, BlockState::InUse);
    const Addr torn =
        region.sliceAddr(2 * (region.slicesPerBlock() + 1) + 15);
    std::uint8_t byte = 0;
    nvm->peek(torn + 40, &byte, 1);
    byte ^= 0x10;
    nvm->poke(torn + 40, &byte, 1);

    ctrl.crash();
    ctrl.recover(2);

    // Replayed: block 2's opener (two lines), the five transactions
    // before the torn record and block 3's transaction (a line each).
    // The torn slot ends block 2's live area, so the transaction whose
    // record tore and the 24 after it are lost.
    *lines = {0x10000 + 2 * kCacheLineSize * 42,
              0x10000 + 2 * kCacheLineSize * 42 + kCacheLineSize};
    for (unsigned t : {0, 1, 2, 3, 4})
        lines->push_back(0x40000 + kCacheLineSize * t);
    lines->push_back(last);
    const RecoveryResult r = ctrl.lastRecovery();
    *home = std::move(nvm);
    return r;
}

TEST(HandBuiltImageRecovery, TalliesTheBytesOneScanMoves)
{
    // With every replayed line whole, and with the last one partial.
    for (unsigned last_words : {8u, 7u}) {
        SCOPED_TRACE("last transaction stores " +
                     std::to_string(last_words) + " words");
        std::vector<Addr> lines;
        std::unique_ptr<NvmDevice> nvm;
        const RecoveryResult r =
            recoverHandBuiltImage(last_words, &lines, &nvm);
        const Addr last = lines.back();
        const std::uint64_t partial = last_words < kWordsPerLine ? 1 : 0;

        RecoveryResult want;
        want.committedTxReplayed = 7;
        want.slicesScanned = 14 + 2; // block 2's slots 1-14, block 3's 1-2
        want.homeLinesWritten = lines.size();
        want.homeLinesRead = partial;
        want.distinctWords = 8 * (lines.size() - 1) + last_words;
        for (Addr line : lines) {
            want.bucketWords[mixHash(line / kCacheLineSize) %
                             RecoveryManager::kMergeBuckets] +=
                line == last ? last_words : kWordsPerLine;
        }
        // Block 2 opened at sequence 127, so block 3's second slot is
        // sequence 127 + 63 + 1; its transaction is the 74th.
        want.maxSeq = 191;
        want.maxTxId = 74;
        want.slicesRejected = 1;
        want.tornCommitsDetected = 1;
        want.blocksSkippedByWatermark = 1;
        // The watermark word's line, four header lines, block 2's
        // slots 1-15, block 3's slots 1-3, a write of each replayed
        // home line and a read of the partial one.
        want.bytesScanned = kCacheLineSize + 4 * kCacheLineSize +
                            (15 + 3) * MemorySlice::kSliceBytes +
                            (lines.size() + partial) * kCacheLineSize;
        // Nine Data slices: two of block 2's opener, one each of the
        // six transactions after it up to the torn slot, and block 3's
        // one.
        want.keptSliceBytes = 9 * MemorySlice::kSliceBytes;
        want.crcVerifyCost = 16 * RecoveryManager::kCrcVerifyCpuCost;
        want.time = RecoveryManager::time(want, 2, nvm->timing());
        EXPECT_EQ(r, want);
        EXPECT_EQ(r.bytesScanned, partial ? 3200u : 3136u);

        // A skipped read changes no byte: every line holds what a
        // read-modify-write gives, the stored words over the old copy.
        for (Addr line : lines) {
            for (unsigned i = 0; i < kWordsPerLine; ++i) {
                const Addr a = line + 8 * i;
                const bool stored = line != last || i < last_words;
                EXPECT_EQ(nvm->peekWord(a), stored ? a : 0xdead0000 + i)
                    << std::hex << a;
            }
        }
    }
}

TEST_F(RecoveryFixture, TimingScalesWithBandwidthAndThreads)
{
    // The fixture's controller runs at 25 GB/s; a second one at
    // 10 GB/s runs the same transactions, each on its own clock. The
    // traffic overflows the 4-block region, so region-pressure GC
    // runs in both (as it does in Fig. 11's fill).
    SystemConfig cfg10 = cfg;
    cfg10.nvm.bandwidthBytesPerSec = 10e9;
    NvmDevice nvm10(cfg10.nvmCapacity(), cfg10.nvm);
    HoopController ctrl10(nvm10, cfg10);
    for (HoopController *c : {&ctrl, &ctrl10}) {
        Tick now = 0;
        for (unsigned t = 0; t < 4000; ++t) {
            c->txBegin(0, now);
            for (unsigned i = 0; i < 64; ++i) {
                const std::uint64_t v = t + i;
                std::uint8_t b[8];
                std::memcpy(b, &v, 8);
                now = c->storeWord(0, 0x10000 + 8 * ((t * 64 + i) % 8192),
                                   b, now);
            }
            now = c->txEnd(0, now);
        }
        ASSERT_GT(c->gc().stats().value("runs"), 0u);
        c->crash();
    }

    // Both crash into the same scan result (every field but the
    // time), so the formula on either result with either timing is
    // that controller's recovery time. Neither more threads nor more
    // bandwidth may slow recovery.
    const NvmTiming &t25 = nvm.timing();
    const NvmTiming &t10 = nvm10.timing();
    Tick prev25 = 0, prev10 = 0;
    for (unsigned thr : {1u, 2u, 4u, 8u, 16u}) {
        const Tick m25 = ctrl.modelRecovery(thr);
        RecoveryResult r25 = ctrl.lastRecovery();
        const Tick m10 = ctrl10.modelRecovery(thr);
        RecoveryResult r10 = ctrl10.lastRecovery();
        for (const RecoveryResult *r : {&r25, &r10}) {
            EXPECT_EQ(RecoveryManager::time(*r, thr, t25), m25);
            EXPECT_EQ(RecoveryManager::time(*r, thr, t10), m10);
        }
        EXPECT_LE(m25, m10);
        if (thr > 1) {
            EXPECT_LE(m25, prev25);
            EXPECT_LE(m10, prev10);
        }
        prev25 = m25;
        prev10 = m10;
        r25.time = r10.time = 0;
        EXPECT_EQ(r25, r10) << "threads " << thr;
        expectPartitionedMergeBounds(r25, t25);
        expectPartitionedMergeBounds(r25, t10);
    }
    EXPECT_LT(prev25, prev10); // bandwidth-bound at 16 threads
    EXPECT_EQ(ctrl.recover(16), prev25);
}

TEST_F(RecoveryFixture, WordOnceImageRecoversAtTheChannelBound)
{
    // Fig. 11's kind of image: consecutive words, each written once,
    // and no periodic GC (maintenance never runs; the region holds
    // every slice, so no pressure GC either). Every line is whole, so
    // the replay writes each home line without reading it. Its merge
    // work is far above its channel time on one thread; split 16 ways
    // by home line it falls below, so the channel alone sets the time,
    // while split 8 ways it still binds.
    constexpr unsigned kTx = 1000, kWordsPerTx = 64;
    for (unsigned t = 0; t < kTx; ++t) {
        ctrl.txBegin(0, 0);
        for (unsigned i = 0; i < kWordsPerTx; ++i) {
            const std::uint64_t w = t * kWordsPerTx + i;
            store(0, w * kWordSize, w + 1);
        }
        ctrl.txEnd(0, 0);
    }
    ctrl.crash();

    const Tick t16 = ctrl.modelRecovery(16);
    const RecoveryResult r = ctrl.lastRecovery();
    ASSERT_EQ(r.distinctWords, std::uint64_t{kTx} * kWordsPerTx);
    EXPECT_EQ(r.homeLinesWritten, r.distinctWords / kWordsPerLine);
    EXPECT_EQ(r.homeLinesRead, 0u);
    const NvmTiming &timing = nvm.timing();
    const Tick latencies = timing.readLatency + timing.writeLatency;
    EXPECT_EQ(t16, timing.transferTicks(r.bytesScanned) + latencies);
    EXPECT_EQ(ctrl.modelRecovery(8), RecoveryManager::cpuTime(r, 8) +
                                         latencies);
    EXPECT_GT(RecoveryManager::cpuTime(r, 8),
              timing.transferTicks(r.bytesScanned));
    EXPECT_GT(serialMergeTime(r, 16, timing), t16); // CPU-bound serially

    // Each line's 8 words land in the bucket of its line number's hash.
    std::array<std::uint64_t, RecoveryManager::kMergeBuckets> buckets{};
    for (Addr line = 0; line < r.distinctWords * kWordSize;
         line += kCacheLineSize)
        buckets[mixHash(line / kCacheLineSize) %
                RecoveryManager::kMergeBuckets] += kWordsPerLine;
    EXPECT_EQ(r.bucketWords, buckets);
    // Thread t of T merges the buckets b with b % T == t, and the
    // busiest thread's merge steps enter the CPU term.
    for (unsigned thr = 1; thr <= 16; ++thr) {
        std::uint64_t busiest = 0;
        for (unsigned t = 0; t < thr; ++t) {
            std::uint64_t steps = 0;
            for (unsigned b = 0; b < buckets.size(); ++b)
                steps += b % thr == t ? buckets[b] : 0;
            busiest = std::max(busiest, steps);
        }
        EXPECT_EQ(RecoveryManager::busiestMergeSteps(r, thr), busiest)
            << thr;
        EXPECT_EQ(RecoveryManager::cpuTime(r, thr),
                  (r.slicesScanned + thr - 1) / thr *
                          (RecoveryManager::kPerSliceCpuCost +
                           RecoveryManager::kCrcVerifyCpuCost) +
                      busiest * RecoveryManager::kMergeStepCpuCost)
            << thr;
    }
    expectPartitionedMergeBounds(r, timing);

    ctrl.recover(16);
    for (std::uint64_t w = 0; w < r.distinctWords; w += 997)
        EXPECT_EQ(nvm.peekWord(w * kWordSize), w + 1) << w;
}

} // namespace
} // namespace hoopnvm
