/**
 * @file
 * Tests for the HOOP controller: out-of-place store capture, slice
 * chains and commit records, mapping-table redirection on fills (with
 * the home read a whole-line slice skips), eviction routing, and the
 * load/store flow of Fig. 6.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "hoop/hoop_controller.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
hoopConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.oopBlockBytes = miB(1);
    cfg.auxBytes = miB(32);
    cfg.mappingTableBytes = kiB(64);
    cfg.evictionBufferBytes = kiB(8);
    return cfg;
}

struct HoopFixture : ::testing::Test
{
    HoopFixture()
        : cfg(hoopConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(nvm, cfg)
    {
    }

    /** Run one transaction storing @p words at consecutive addrs. */
    TxId
    storeTx(CoreId core, Addr base, unsigned words,
            std::uint64_t value0)
    {
        const TxId tx = ctrl.txBegin(core, 0);
        for (unsigned i = 0; i < words; ++i) {
            std::uint64_t v = value0 + i;
            std::uint8_t b[8];
            std::memcpy(b, &v, 8);
            ctrl.storeWord(core, base + 8 * i, b, 0);
        }
        ctrl.txEnd(core, 0);
        return tx;
    }

    SystemConfig cfg;
    NvmDevice nvm;
    HoopController ctrl;
};

TEST_F(HoopFixture, TxLifecycle)
{
    EXPECT_FALSE(ctrl.inTx(0));
    const TxId tx = ctrl.txBegin(0, 0);
    EXPECT_TRUE(ctrl.inTx(0));
    EXPECT_EQ(ctrl.currentTx(0), tx);
    EXPECT_FALSE(ctrl.isCommitted(tx));
    ctrl.txEnd(0, 0);
    EXPECT_FALSE(ctrl.inTx(0));
    EXPECT_TRUE(ctrl.isCommitted(tx));
}

TEST_F(HoopFixture, StoresAreCapturedAsSlices)
{
    storeTx(0, 0x1000, 8, 100);
    // One full data slice plus one packed commit record must be on
    // NVM: 128 B slice + 32 B record + 64 B block header.
    EXPECT_EQ(ctrl.stats().value("data_slices"), 1u);
    EXPECT_EQ(ctrl.stats().value("addr_slices"), 1u);
    EXPECT_EQ(nvm.bytesWritten(), MemorySlice::kSliceBytes + 32 + 64u);
}

TEST_F(HoopFixture, PartialSliceFlushedAtCommit)
{
    storeTx(0, 0x1000, 3, 5);
    EXPECT_EQ(ctrl.stats().value("data_slices"), 1u);
    const MemorySlice s = ctrl.region().peekSlice(
        1); // first slice slot of block 0
    EXPECT_EQ(s.type, SliceType::Data);
    EXPECT_EQ(s.count, 3);
    EXPECT_TRUE(s.start);
    EXPECT_EQ(s.words[0], 5u);
    EXPECT_EQ(s.homeAddrs[2], 0x1000u + 16);
}

TEST_F(HoopFixture, ChainLinksMultipleSlices)
{
    storeTx(0, 0x2000, 20, 0); // 3 data slices (8+8+4)
    EXPECT_EQ(ctrl.stats().value("data_slices"), 3u);
    // The address slice records the chain tail; walk backwards.
    const MemorySlice rec = ctrl.region().peekSlice(4);
    ASSERT_EQ(rec.type, SliceType::AddrRec);
    EXPECT_EQ(rec.record.sliceCount, 3u);
    MemorySlice s = ctrl.region().peekSlice(rec.record.tailSliceIdx);
    unsigned hops = 1;
    while (s.prevIdx != MemorySlice::kNullIdx) {
        s = ctrl.region().peekSlice(s.prevIdx);
        ++hops;
    }
    EXPECT_EQ(hops, 3u);
    EXPECT_TRUE(s.start);
}

TEST_F(HoopFixture, SameWordCombinedWithinSlice)
{
    const TxId tx = ctrl.txBegin(0, 0);
    std::uint64_t v = 1;
    std::uint8_t b[8];
    for (int i = 0; i < 6; ++i) {
        v = 100 + i;
        std::memcpy(b, &v, 8);
        ctrl.storeWord(0, 0x3000, b, 0); // same word every time
    }
    ctrl.txEnd(0, 0);
    (void)tx;
    EXPECT_EQ(ctrl.stats().value("data_slices"), 1u);
    const MemorySlice s = ctrl.region().peekSlice(1);
    EXPECT_EQ(s.count, 1);
    EXPECT_EQ(s.words[0], 105u);
}

TEST_F(HoopFixture, ReadOnlyTxCommitsWithoutSlices)
{
    ctrl.txBegin(0, 0);
    const Tick done = ctrl.txEnd(0, 123);
    EXPECT_EQ(done, 123u);
    EXPECT_EQ(ctrl.stats().value("addr_slices"), 0u);
}

TEST_F(HoopFixture, EvictionOfOpenTxGoesOutOfPlace)
{
    const TxId tx = ctrl.txBegin(0, 0);
    std::uint8_t line[kCacheLineSize] = {};
    line[0] = 0xaa;
    ctrl.evictLine(0, 0x4000, line, /*persistent=*/true, tx,
                   /*mask=*/0x01, 0);
    EXPECT_EQ(ctrl.stats().value("oop_evictions"), 1u);
    EXPECT_TRUE(ctrl.mappingTable().lookup(0x4000).has_value());
    // The home region must still hold the old (zero) data.
    EXPECT_EQ(nvm.peekWord(0x4000), 0u);
    ctrl.txEnd(0, 0);
}

TEST_F(HoopFixture, EvictionOfCommittedTxAlsoGoesOutOfPlace)
{
    // The home region is written only by GC (§III-B): even after the
    // transaction committed, the eviction produces an OOP slice and a
    // mapping entry rather than an in-place write.
    const TxId tx = storeTx(0, 0x5000, 1, 42);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 42;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x5000, line, true, tx, 0x01, 0);
    EXPECT_EQ(ctrl.stats().value("oop_evictions"), 1u);
    EXPECT_EQ(nvm.peekWord(0x5000), 0u); // home untouched until GC
    EXPECT_TRUE(ctrl.mappingTable().lookup(0x5000).has_value());

    // GC migrates the committed value home and drops the entry.
    ctrl.drain(0);
    EXPECT_EQ(nvm.peekWord(0x5000), 42u);
    EXPECT_FALSE(ctrl.mappingTable().lookup(0x5000).has_value());
}

TEST_F(HoopFixture, NonTransactionalEvictionGoesHome)
{
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 7;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x5040, line, /*persistent=*/false, kInvalidTxId,
                   0x01, 0);
    EXPECT_EQ(ctrl.stats().value("home_evictions"), 1u);
    EXPECT_EQ(nvm.peekWord(0x5040), 7u);
}

TEST_F(HoopFixture, FillReconstructsFromMappingHit)
{
    // Home holds an old value for word 1; the eviction slice holds the
    // new value for word 0 only.
    nvm.pokeWord(0x6008, 7);
    const TxId tx = ctrl.txBegin(0, 0);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 99;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x6000, line, true, tx, 0x01, 0);

    ASSERT_FALSE(ctrl.mappingTable().lookup(0x6000)->wholeLine);

    const std::uint64_t bytes_before = nvm.bytesRead();
    const std::uint64_t reads_before = nvm.readAccesses();
    std::uint8_t buf[kCacheLineSize] = {};
    const FillResult fr = ctrl.fillLine(0, 0x6000, buf, 0);
    std::uint64_t w0, w1;
    std::memcpy(&w0, buf, 8);
    std::memcpy(&w1, buf + 8, 8);
    EXPECT_EQ(w0, 99u); // from the OOP slice
    EXPECT_EQ(w1, 7u);  // from the home region (parallel read)
    EXPECT_TRUE(fr.dirty);
    EXPECT_TRUE(fr.persistent);
    EXPECT_EQ(fr.txId, tx);
    EXPECT_EQ(fr.wordMask, 0x01);
    // The slice leaves seven words uncovered: both reads are issued.
    EXPECT_EQ(nvm.bytesRead() - bytes_before,
              MemorySlice::kSliceBytes + kCacheLineSize);
    EXPECT_EQ(nvm.readAccesses() - reads_before, 2u);
    EXPECT_EQ(ctrl.stats().value("mapping_hits"), 1u);
    EXPECT_EQ(ctrl.stats().value("parallel_reads"), 1u);
    // The entry is consumed: the freshest copy now lives in the cache.
    EXPECT_FALSE(ctrl.mappingTable().lookup(0x6000).has_value());
    ctrl.txEnd(0, 0);
}

/** A line image of eight words value0, value0 + 1, ... */
void
lineOf(std::uint64_t value0, std::uint8_t *line)
{
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        const std::uint64_t v = value0 + i;
        std::memcpy(line + i * kWordSize, &v, kWordSize);
    }
}

TEST_F(HoopFixture, FillFromWholeLineSliceReadsTheSliceAlone)
{
    // Home holds an old copy of every word; the eviction slice holds
    // all eight new ones, so the home copy cannot show through.
    std::uint8_t old_line[kCacheLineSize];
    lineOf(500, old_line);
    nvm.poke(0x6000, old_line, kCacheLineSize);
    const TxId tx = ctrl.txBegin(0, 0);
    std::uint8_t line[kCacheLineSize];
    lineOf(900, line);
    ctrl.evictLine(0, 0x6000, line, true, tx, kWholeLineMask, 0);
    ASSERT_TRUE(ctrl.mappingTable().lookup(0x6000)->wholeLine);

    const std::uint64_t bytes_before = nvm.bytesRead();
    const std::uint64_t reads_before = nvm.readAccesses();
    std::uint8_t buf[kCacheLineSize] = {};
    const FillResult fr = ctrl.fillLine(0, 0x6000, buf, 0);
    // One 128 B slice read, no home read.
    EXPECT_EQ(nvm.bytesRead() - bytes_before, MemorySlice::kSliceBytes);
    EXPECT_EQ(nvm.readAccesses() - reads_before, 1u);
    EXPECT_EQ(ctrl.stats().value("mapping_hits"), 1u);
    EXPECT_EQ(ctrl.stats().value("parallel_reads"), 0u);
    // The line an always-read fill builds: the home copy overlaid with
    // every slice word, which is the slice's words.
    EXPECT_EQ(std::memcmp(buf, line, kCacheLineSize), 0);
    EXPECT_TRUE(fr.dirty);
    EXPECT_TRUE(fr.persistent);
    EXPECT_EQ(fr.txId, tx);
    EXPECT_EQ(fr.wordMask, kWholeLineMask);
    EXPECT_FALSE(ctrl.mappingTable().lookup(0x6000).has_value());
    ctrl.txEnd(0, 0);
}

TEST_F(HoopFixture, FaultyWholeLineSliceFallsBackToTheHomeCopy)
{
    // The same eviction and fill run on this controller, whose slice
    // then reads with a bit flipped in every word, and on a clean
    // twin.
    NvmDevice twin_nvm(cfg.nvmCapacity(), cfg.nvm);
    HoopController twin(twin_nvm, cfg);
    std::uint8_t old_line[kCacheLineSize];
    lineOf(500, old_line);
    std::uint8_t line[kCacheLineSize];
    lineOf(900, line);
    for (HoopController *c : {&ctrl, &twin}) {
        NvmDevice &dev = c == &ctrl ? nvm : twin_nvm;
        dev.poke(0x6000, old_line, kCacheLineSize);
        const TxId tx = c->txBegin(0, 0);
        c->evictLine(0, 0x6000, line, true, tx, kWholeLineMask, 0);
        c->txEnd(0, 0);
    }
    const auto m = ctrl.mappingTable().lookup(0x6000);
    ASSERT_TRUE(m && m->wholeLine);
    const Addr slice = ctrl.region().sliceAddr(m->slice);
    nvm.faults().addMediaFault(slice, slice + MemorySlice::kSliceBytes,
                               MediaFaultKind::BitFlip, 1.0);

    const std::uint64_t bytes_before = nvm.bytesRead();
    const std::uint64_t reads_before = nvm.readAccesses();
    std::uint8_t buf[kCacheLineSize] = {};
    const FillResult fr = ctrl.fillLine(0, 0x6000, buf, 0);
    EXPECT_EQ(ctrl.stats().value("fill_slice_crc_drops"), 1u);
    // The slice read, then the home read it fell back to.
    EXPECT_EQ(nvm.bytesRead() - bytes_before,
              MemorySlice::kSliceBytes + kCacheLineSize);
    EXPECT_EQ(nvm.readAccesses() - reads_before, 2u);
    EXPECT_EQ(ctrl.stats().value("parallel_reads"), 0u);
    // The home read is issued once the slice read has completed: the
    // fill takes at least a read latency longer than the twin's,
    // which reads the slice alone.
    std::uint8_t twin_buf[kCacheLineSize];
    const FillResult twin_fr = twin.fillLine(0, 0x6000, twin_buf, 0);
    EXPECT_EQ(twin.stats().value("fill_slice_crc_drops"), 0u);
    EXPECT_GE(fr.completion, twin_fr.completion + cfg.nvm.readLatency);
    // What an always-read fill serves when the slice fails its CRC:
    // the home copy, clean.
    EXPECT_EQ(std::memcmp(buf, old_line, kCacheLineSize), 0);
    EXPECT_FALSE(fr.dirty);
    EXPECT_EQ(std::memcmp(twin_buf, line, kCacheLineSize), 0);
}

TEST_F(HoopFixture, FillFromHomeOnMappingMiss)
{
    nvm.pokeWord(0x7000, 55);
    std::uint8_t buf[kCacheLineSize];
    const FillResult fr = ctrl.fillLine(0, 0x7000, buf, 0);
    std::uint64_t w;
    std::memcpy(&w, buf, 8);
    EXPECT_EQ(w, 55u);
    EXPECT_FALSE(fr.dirty);
    EXPECT_GE(fr.completion, cfg.nvm.readLatency);
}

TEST_F(HoopFixture, DebugReadLineSeesMappingRedirection)
{
    const TxId tx = ctrl.txBegin(0, 0);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 1234;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x8000, line, true, tx, 0x01, 0);
    std::uint8_t buf[kCacheLineSize];
    ctrl.debugReadLine(0x8000, buf);
    std::uint64_t w;
    std::memcpy(&w, buf, 8);
    EXPECT_EQ(w, 1234u);
    ctrl.txEnd(0, 0);
}

TEST_F(HoopFixture, CrashDropsVolatileState)
{
    ctrl.txBegin(0, 0);
    std::uint8_t b[8] = {1};
    ctrl.storeWord(0, 0x9000, b, 0);
    std::uint8_t line[kCacheLineSize] = {};
    ctrl.evictLine(0, 0x9040, line, true, ctrl.currentTx(0), 0x01, 0);
    ctrl.crash();
    EXPECT_FALSE(ctrl.inTx(0));
    EXPECT_EQ(ctrl.mappingTable().size(), 0u);
    EXPECT_FALSE(ctrl.dataBuffer().hasPending(0));
}

TEST_F(HoopFixture, TxModifiedBytesTracked)
{
    storeTx(0, 0x1000, 8, 0);
    EXPECT_EQ(ctrl.txModifiedBytes(), 64u);
}

} // namespace
} // namespace hoopnvm
