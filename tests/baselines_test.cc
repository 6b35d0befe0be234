/**
 * @file
 * Tests for the five reconstructed baselines. Each scheme is driven
 * through the same controller-level scenarios: commit durability,
 * crash discard of uncommitted transactions, fill correctness after
 * evictions, and scheme-specific mechanics (log truncation, shadow
 * flips, index walks, checkpointing, the home reads LSM skips for
 * whole lines).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "baselines/lad_controller.hh"
#include "baselines/lsm_controller.hh"
#include "baselines/osp_controller.hh"
#include "baselines/redo_controller.hh"
#include "baselines/undo_controller.hh"
#include "common/errors.hh"
#include "sim/system.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(16) + miB(4); // OSP: shadow + selector + log
    return cfg;
}

void
store(PersistenceController &c, CoreId core, Addr a, std::uint64_t v)
{
    std::uint8_t b[8];
    std::memcpy(b, &v, 8);
    c.storeWord(core, a, b, 0);
}

std::uint64_t
readWord(PersistenceController &c, Addr a)
{
    std::uint8_t buf[kCacheLineSize];
    c.debugReadLine(lineAddr(a), buf);
    std::uint64_t v;
    std::memcpy(&v, buf + (a - lineAddr(a)), 8);
    return v;
}

/** Parameterized durability contract over all persistent baselines. */
class BaselineContract : public ::testing::TestWithParam<Scheme>
{
  protected:
    BaselineContract()
        : cfg(baseConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(makeController(GetParam(), nvm, cfg))
    {
    }

    SystemConfig cfg;
    NvmDevice nvm;
    std::unique_ptr<PersistenceController> ctrl;
};

TEST_P(BaselineContract, CommittedTxSurvivesCrash)
{
    ctrl->txBegin(0, 0);
    for (unsigned i = 0; i < 12; ++i)
        store(*ctrl, 0, 0x1000 + 8 * i, 100 + i);
    ctrl->txEnd(0, 0);

    ctrl->crash();
    ctrl->recover(2);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(readWord(*ctrl, 0x1000 + 8 * i), 100u + i) << i;
}

TEST_P(BaselineContract, UncommittedTxDiscardedOnCrash)
{
    // Commit a base value first, then crash mid-overwrite.
    ctrl->txBegin(0, 0);
    store(*ctrl, 0, 0x2000, 1);
    ctrl->txEnd(0, 0);

    ctrl->txBegin(0, 0);
    for (unsigned i = 0; i < 12; ++i)
        store(*ctrl, 0, 0x2000 + 8 * i, 500 + i);
    ctrl->crash(); // no txEnd
    ctrl->recover(2);

    EXPECT_EQ(readWord(*ctrl, 0x2000), 1u);
    for (unsigned i = 1; i < 12; ++i)
        EXPECT_EQ(readWord(*ctrl, 0x2000 + 8 * i), 0u) << i;
}

TEST_P(BaselineContract, FillSeesCommittedData)
{
    ctrl->txBegin(0, 0);
    store(*ctrl, 0, 0x3000, 42);
    ctrl->txEnd(0, 0);
    // Background work retires the data to its readable location (for
    // HOOP the freshest copy otherwise lives in the cache hierarchy,
    // which this controller-level test does not model).
    ctrl->drain(0);
    std::uint8_t buf[kCacheLineSize];
    const FillResult fr = ctrl->fillLine(0, 0x3000, buf, 0);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    EXPECT_EQ(v, 42u);
    EXPECT_GT(fr.completion, 0u);
}

TEST_P(BaselineContract, FillSeesOpenTxDataAfterEviction)
{
    // An open transaction's line is evicted from the LLC; a subsequent
    // fill must reconstruct the uncommitted data.
    ctrl->txBegin(0, 0);
    store(*ctrl, 0, 0x4000, 77);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 77;
    std::memcpy(line, &v, 8);
    ctrl->evictLine(0, 0x4000, line, true, ctrl->currentTx(0), 0x01, 0);

    std::uint8_t buf[kCacheLineSize];
    ctrl->fillLine(0, 0x4000, buf, 0);
    std::uint64_t got;
    std::memcpy(&got, buf, 8);
    EXPECT_EQ(got, 77u);
    ctrl->txEnd(0, 0);
}

TEST_P(BaselineContract, SequentialTxsAccumulate)
{
    for (unsigned t = 0; t < 20; ++t) {
        ctrl->txBegin(0, 0);
        store(*ctrl, 0, 0x5000 + 8 * (t % 4), t);
        ctrl->txEnd(0, 0);
        ctrl->maintenance(cfg.gcPeriod * (t + 1));
    }
    ctrl->drain(0);
    EXPECT_EQ(readWord(*ctrl, 0x5000), 16u);
    EXPECT_EQ(readWord(*ctrl, 0x5008), 17u);
    EXPECT_EQ(readWord(*ctrl, 0x5010), 18u);
    EXPECT_EQ(readWord(*ctrl, 0x5018), 19u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BaselineContract,
    ::testing::Values(Scheme::Hoop, Scheme::OptRedo, Scheme::OptUndo,
                      Scheme::Osp, Scheme::Lsm, Scheme::Lad),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string n = schemeName(info.param);
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

// ---- Scheme-specific mechanics ----

TEST(RedoSpecifics, LogsAndCheckpoints)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    RedoController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x1000, 5);
    store(ctrl, 0, 0x1040, 6); // second line
    EXPECT_EQ(nvm.peekWord(0x1000), 0u); // nothing durable mid-tx
    ctrl.txEnd(0, 0);
    // Two data entries + one commit record, then the double write:
    // each logged line checkpointed home.
    EXPECT_EQ(ctrl.stats().value("log_entries"), 2u);
    EXPECT_EQ(ctrl.stats().value("commit_records"), 1u);
    EXPECT_EQ(ctrl.stats().value("checkpoint_writes"), 2u);
    EXPECT_EQ(nvm.peekWord(0x1000), 5u);
    EXPECT_EQ(nvm.peekWord(0x1040), 6u);

    ctrl.drain(0); // truncate retired entries
    EXPECT_EQ(ctrl.log().size(), 0u);
}

TEST(UndoSpecifics, OldImageCapturedBeforeUpdate)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    UndoController ctrl(nvm, cfg);

    nvm.pokeWord(0x2000, 11); // pre-existing committed value

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x2000, 22);
    // The undo entry must hold the OLD value.
    bool saw_image = false;
    ctrl.log().scan([&](const LogEntry &e) {
        if (e.type == LogEntryType::UndoImage) {
            saw_image = true;
            EXPECT_EQ(e.words[0], 11u);
        }
    });
    EXPECT_TRUE(saw_image);
    ctrl.txEnd(0, 0);
    // In-place scheme: commit flushed the new value home.
    EXPECT_EQ(nvm.peekWord(0x2000), 22u);
}

TEST(UndoSpecifics, RollbackRestoresOldValues)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    UndoController ctrl(nvm, cfg);
    nvm.pokeWord(0x3000, 1);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x3000, 2);
    // Simulate the in-place eviction reaching home before the crash.
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 2;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x3000, line, true, ctrl.currentTx(0), 0x01, 0);
    EXPECT_EQ(nvm.peekWord(0x3000), 2u); // uncommitted data in place

    ctrl.crash();
    ctrl.recover(1);
    EXPECT_EQ(nvm.peekWord(0x3000), 1u); // rolled back
}

TEST(OspSpecifics, ShadowFlipAlternates)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    OspController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x4000, 1);
    ctrl.txEnd(0, 0);
    EXPECT_TRUE(ctrl.shadowIsCurrent(0x4000));
    EXPECT_EQ(readWord(ctrl, 0x4000), 1u);
    // The original copy still holds the old (zero) data.
    EXPECT_EQ(nvm.peekWord(0x4000), 0u);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x4000, 2);
    ctrl.txEnd(0, 0);
    EXPECT_FALSE(ctrl.shadowIsCurrent(0x4000)); // flipped back
    EXPECT_EQ(nvm.peekWord(0x4000), 2u);
    EXPECT_EQ(ctrl.stats().value("tlb_shootdowns"), 2u);
}

TEST(OspSpecifics, SelectorSurvivesCrash)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    OspController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x5000, 9);
    ctrl.txEnd(0, 0);
    ctrl.crash();
    ctrl.recover(1);
    EXPECT_TRUE(ctrl.shadowIsCurrent(0x5000));
    EXPECT_EQ(readWord(ctrl, 0x5000), 9u);
}

TEST(OspSpecifics, RecoveryRebuildsExactlyTheTablesSelectors)
{
    // Recovery reads the selector table in chunks and skips those no
    // write reached. Flips land in chunks 0 and 2, a line of chunk 3
    // flips there and back, and a media fault covers chunk 1, which
    // was never written, so some of its bytes peek nonzero. The
    // rebuilt selector set must be exactly the table's nonzero bytes.
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    OspController ctrl(nvm, cfg);
    constexpr std::uint64_t kChunkLines = 4096; // one selector byte each

    auto commit = [&](Addr a, std::uint64_t v) {
        ctrl.txBegin(0, 0);
        store(ctrl, 0, a, v);
        ctrl.txEnd(0, 0);
    };
    commit(0x5000, 1);
    commit(2 * kChunkLines * kCacheLineSize + kCacheLineSize, 2);
    commit(3 * kChunkLines * kCacheLineSize, 3);
    commit(3 * kChunkLines * kCacheLineSize, 4);

    // The selector table follows the shadow copies in the aux region.
    const Addr table = cfg.auxBase() + cfg.homeBytes;
    ctrl.crash();
    nvm.faults().addMediaFault(table + kChunkLines, table + 2 * kChunkLines,
                               MediaFaultKind::BitFlip, 0.05);
    ctrl.recover(1);

    const std::uint64_t n_lines = cfg.homeBytes / kCacheLineSize;
    std::vector<std::uint8_t> selectors(n_lines);
    nvm.peek(table, selectors.data(), n_lines);
    std::uint64_t current = 0, faulty = 0;
    for (std::uint64_t i = 0; i < n_lines; ++i) {
        ASSERT_EQ(ctrl.shadowIsCurrent(i * kCacheLineSize),
                  selectors[i] != 0)
            << i;
        current += selectors[i] != 0;
        faulty += selectors[i] != 0 && i / kChunkLines == 1;
    }
    EXPECT_GT(faulty, 0u);
    EXPECT_EQ(current, 2 + faulty);
}

TEST(LsmSpecifics, LoadsPayIndexWalk)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    LsmController ctrl(nvm, cfg);
    const Tick cost = ctrl.loadOverhead(0, 0x1000, 0);
    EXPECT_GE(cost, LsmController::kDramLatency);
    EXPECT_EQ(ctrl.stats().value("index_walks"), 1u);
}

TEST(LsmSpecifics, GcMigratesAndEmptiesIndex)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    LsmController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x6000, 3);
    ctrl.txEnd(0, 0);
    EXPECT_EQ(ctrl.index().size(), 1u);
    EXPECT_EQ(nvm.peekWord(0x6000), 0u);

    ctrl.drain(0);
    EXPECT_EQ(ctrl.index().size(), 0u);
    EXPECT_EQ(nvm.peekWord(0x6000), 3u);
    EXPECT_EQ(ctrl.log().size(), 0u);
}

/**
 * An LSM controller whose committed transaction stored all of line
 * 0x6000 (values 900 + w) and words 0-2 of line 0x6040 (values
 * 950 + w), over home copies whose words read 500 + w and 600 + w.
 */
struct LsmWholeAndPartial
{
    LsmWholeAndPartial()
        : cfg(baseConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(nvm, cfg)
    {
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            nvm.pokeWord(0x6000 + 8 * w, 500 + w);
            nvm.pokeWord(0x6040 + 8 * w, 600 + w);
        }
        ctrl.txBegin(0, 0);
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            store(ctrl, 0, 0x6000 + 8 * w, 900 + w);
        for (unsigned w = 0; w < 3; ++w)
            store(ctrl, 0, 0x6040 + 8 * w, 950 + w);
        ctrl.txEnd(0, 0);
    }

    /** What a read-modify-write gives for word @p w of @p line. */
    static std::uint64_t
    want(Addr line, unsigned w)
    {
        if (line == 0x6000)
            return 900 + w;
        return w < 3 ? 950 + w : 600 + w;
    }

    SystemConfig cfg;
    NvmDevice nvm;
    LsmController ctrl;
};

// A fill reads the home line only for the words the log leaves out:
// the whole line costs the log read alone, the partial one both.
TEST(LsmSpecifics, FillReadsHomeOnlyForPartialLines)
{
    LsmWholeAndPartial f;
    for (const Addr line : {Addr{0x6000}, Addr{0x6040}}) {
        SCOPED_TRACE(line);
        const bool whole = line == 0x6000;
        const std::uint64_t bytes_before = f.nvm.bytesRead();
        const std::uint64_t reads_before = f.nvm.readAccesses();
        std::uint8_t buf[kCacheLineSize] = {};
        f.ctrl.fillLine(0, line, buf, 0);
        EXPECT_EQ(f.nvm.bytesRead() - bytes_before,
                  LogEntry::kEntryBytes + (whole ? 0 : kCacheLineSize));
        EXPECT_EQ(f.nvm.readAccesses() - reads_before, whole ? 1u : 2u);
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            std::uint64_t v;
            std::memcpy(&v, buf + 8 * w, 8);
            EXPECT_EQ(v, LsmWholeAndPartial::want(line, w)) << w;
        }
    }
    EXPECT_EQ(f.ctrl.stats().value("log_reads"), 2u);
}

// Reclaim migrates both lines with one home read, the partial line's.
TEST(LsmSpecifics, ReclaimReadsHomeOnlyForPartialLines)
{
    LsmWholeAndPartial f;
    const std::uint64_t bytes_before = f.nvm.bytesRead();
    const std::uint64_t reads_before = f.nvm.readAccesses();
    f.ctrl.drain(0);
    EXPECT_EQ(f.ctrl.stats().value("migrated_lines"), 2u);
    EXPECT_EQ(f.nvm.bytesRead() - bytes_before, kCacheLineSize);
    EXPECT_EQ(f.nvm.readAccesses() - reads_before, 1u);
    for (const Addr line : {Addr{0x6000}, Addr{0x6040}}) {
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            EXPECT_EQ(f.nvm.peekWord(line + 8 * w),
                      LsmWholeAndPartial::want(line, w))
                << line << " " << w;
        }
    }
}

TEST(LadSpecifics, CommitDrainsQueueImmediately)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    LadController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x7000, 8);
    EXPECT_EQ(nvm.peekWord(0x7000), 0u); // staged only
    const Tick done = ctrl.txEnd(0, 1000);
    EXPECT_EQ(nvm.peekWord(0x7000), 8u); // persisted at commit
    // Commit persists one line at cache-line granularity: roughly one
    // NVM write latency, with no log writes on top.
    EXPECT_GE(done - 1000, cfg.nvm.writeLatency);
    EXPECT_LT(done - 1000, 2 * cfg.nvm.writeLatency);
}

// ---- Log-full paths: a 16-entry ring and no maintenance ----

/** baseConfig() with a baseline log ring of exactly 16 entries. */
SystemConfig
sixteenEntryLogConfig()
{
    SystemConfig cfg = baseConfig();
    cfg.auxBytes = 64 + 16 * LogEntry::kEntryBytes;
    return cfg;
}

/** First line of the t-th transaction's three-line block. */
Addr
txLines(unsigned t)
{
    return 0x100000 + t * 0x1000;
}

/** One transaction on core 0: @p value into word 0 of @p lines
 *  consecutive lines from @p base. */
void
runTx(PersistenceController &c, Addr base, unsigned lines,
      std::uint64_t value)
{
    c.txBegin(0, 0);
    for (unsigned i = 0; i < lines; ++i)
        store(c, 0, base + i * kCacheLineSize, value);
    c.txEnd(0, 0);
}

/** runTx()'s rejection cause, or nothing when it committed. */
std::optional<RejectCause>
rejectionOf(PersistenceController &c, Addr base, unsigned lines,
            std::uint64_t value)
{
    try {
        runTx(c, base, lines, value);
    } catch (const TxRejected &rj) {
        return rj.cause;
    }
    return std::nullopt;
}

TEST(LogFull, RedoStallTruncatesThenRejectsAnOversizedTx)
{
    SystemConfig cfg = sixteenEntryLogConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    RedoController ctrl(nvm, cfg);
    ASSERT_EQ(ctrl.log().capacity(), 16u);

    // Three redo entries and a commit record each fill the ring.
    for (unsigned t = 0; t < 4; ++t)
        runTx(ctrl, txLines(t), 3, t + 1);
    EXPECT_TRUE(ctrl.log().full());

    // The fifth stalls once; truncating the four checkpointed
    // transactions frees the ring mid-commit.
    EXPECT_EQ(rejectionOf(ctrl, txLines(4), 3, 5), std::nullopt);
    EXPECT_EQ(ctrl.stats().value("log_backpressure_stalls"), 1u);
    EXPECT_EQ(ctrl.stats().value("tx_rejected"), 0u);

    // Sixteen redo entries and a commit record never fit.
    EXPECT_EQ(rejectionOf(ctrl, txLines(4), 16, 6),
              RejectCause::LogExhausted);
    EXPECT_EQ(ctrl.stats().value("tx_rejected"), 1u);

    ctrl.crash();
    ctrl.recover(1);
    for (unsigned t = 0; t < 5; ++t) {
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_EQ(readWord(ctrl, txLines(t) + i * kCacheLineSize),
                      t + 1)
                << t << "/" << i;
    }
    for (unsigned i = 3; i < 16; ++i)
        EXPECT_EQ(readWord(ctrl, txLines(4) + i * kCacheLineSize), 0u)
            << i;
}

/** Opt-Undo and LSM reclaim only while no region is open. */
class LogFullWithoutReclaim : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(LogFullWithoutReclaim, RejectsThoughEveryLiveEntryIsCommitted)
{
    SystemConfig cfg = sixteenEntryLogConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    auto ctrl = makeController(GetParam(), nvm, cfg);

    // Three line entries and a commit record each fill the ring.
    for (unsigned t = 0; t < 4; ++t)
        runTx(*ctrl, txLines(t), 3, t + 1);
    EXPECT_EQ(ctrl->sampleGauges().structBytes,
              16 * LogEntry::kEntryBytes);

    // Every live entry is committed, but the stalling transaction's own
    // region is open, so its stall reclaims nothing.
    EXPECT_EQ(rejectionOf(*ctrl, txLines(4), 3, 5),
              RejectCause::LogExhausted);
    EXPECT_EQ(ctrl->stats().value("log_backpressure_stalls"), 1u);
    EXPECT_EQ(ctrl->stats().value("tx_rejected"), 1u);

    ctrl->crash();
    ctrl->recover(1);
    for (unsigned t = 0; t < 5; ++t) {
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_EQ(readWord(*ctrl, txLines(t) + i * kCacheLineSize),
                      t < 4 ? t + 1 : 0u)
                << t << "/" << i;
    }

    // Maintenance between transactions reclaims before the ring fills.
    for (unsigned t = 5; t < 13; ++t) {
        runTx(*ctrl, txLines(t), 3, t + 1);
        ctrl->maintenance(0);
    }
    EXPECT_EQ(ctrl->stats().value("log_backpressure_stalls"), 1u);
    for (unsigned t = 5; t < 13; ++t)
        EXPECT_EQ(readWord(*ctrl, txLines(t)), t + 1) << t;
}

INSTANTIATE_TEST_SUITE_P(
    UndoAndLsm, LogFullWithoutReclaim,
    ::testing::Values(Scheme::OptUndo, Scheme::Lsm),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string n = schemeName(info.param);
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(TrafficShape, LoggingSchemesWriteMoreThanHoop)
{
    // One representative scenario: many small transactions updating a
    // few hot words. HOOP's packing + coalescing must beat both
    // logging baselines on bytes written (the Fig. 8 direction).
    auto run = [](Scheme s) {
        SystemConfig cfg = baseConfig();
        NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
        auto ctrl = makeController(s, nvm, cfg);
        for (unsigned t = 0; t < 200; ++t) {
            ctrl->txBegin(0, 0);
            for (unsigned i = 0; i < 4; ++i)
                store(*ctrl, 0, 0x8000 + 8 * ((t + i) % 16), t + i);
            ctrl->txEnd(0, 0);
        }
        ctrl->drain(0);
        return nvm.bytesWritten();
    };

    const auto hoop = run(Scheme::Hoop);
    const auto redo = run(Scheme::OptRedo);
    const auto undo = run(Scheme::OptUndo);
    EXPECT_GT(redo, hoop);
    EXPECT_GT(undo, hoop);
}

} // namespace
} // namespace hoopnvm
