/**
 * @file
 * Tests for the transaction/system layer: TxContext, the allocator,
 * core clocks, crash scheduling, and System metrics.
 */

#include <gtest/gtest.h>

#include "txn/tx_context.hh"
#include "txn/sim_allocator.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
txConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(16) + miB(4);
    return cfg;
}

TEST(SimAllocator, ArenasAreDisjointAndAligned)
{
    SimAllocator a(0, miB(8), 4);
    const Addr x = a.alloc(0, 100, 64);
    const Addr y = a.alloc(0, 100, 64);
    EXPECT_TRUE(isAligned(x, 64));
    EXPECT_GE(y, x + 100);
    const Addr z = a.alloc(1, 100, 64);
    EXPECT_GE(z, miB(2)); // arena 1 starts at its own slice
    EXPECT_GT(a.bytesUsed(0), 0u);
    // Address 0 is reserved as the structures' null pointer.
    EXPECT_NE(x, 0u);
}

TEST(TxContext, InitBypassesTiming)
{
    SystemConfig cfg = txConfig();
    System sys(cfg, Scheme::Hoop);
    TxContext ctx(sys, 0, 7);
    const Addr at = ctx.alloc(64);
    const std::uint64_t v = 99;
    ctx.init(at, &v, 8);
    EXPECT_EQ(sys.core(0).clock(), 0u);
    EXPECT_EQ(ctx.debugLoad(at), 99u);
}

TEST(SystemClock, AdvancesMonotonically)
{
    SystemConfig cfg = txConfig();
    System sys(cfg, Scheme::Hoop);
    const Addr at = sys.alloc(0, 64);
    const Tick t0 = sys.core(0).clock();
    sys.txBegin(0);
    sys.storeWord(0, at, 1);
    sys.txEnd(0);
    EXPECT_GT(sys.core(0).clock(), t0);
    // Core 1 is untouched.
    EXPECT_EQ(sys.core(1).clock(), 0u);
    EXPECT_EQ(sys.minClock(), 0u);
    EXPECT_GT(sys.maxClock(), 0u);
}

TEST(SystemCrash, ScheduledCrashFires)
{
    SystemConfig cfg = txConfig();
    System sys(cfg, Scheme::Hoop);
    const Addr at = sys.alloc(0, 640);
    sys.scheduleCrashAfterStores(3);
    sys.txBegin(0);
    sys.storeWord(0, at, 1);
    sys.storeWord(0, at + 8, 2);
    EXPECT_THROW(sys.storeWord(0, at + 16, 3), SimCrash);
    sys.crash();
    sys.recover(1);
    // Nothing committed: all zero.
    EXPECT_EQ(sys.debugLoadWord(at), 0u);
}

TEST(SystemMetrics, CountsCommitsAndCriticalPath)
{
    SystemConfig cfg = txConfig();
    System sys(cfg, Scheme::Hoop);
    const Addr at = sys.alloc(0, 64);
    sys.beginMeasurement();
    for (int i = 0; i < 10; ++i) {
        sys.txBegin(0);
        sys.storeWord(0, at, i);
        sys.txEnd(0);
    }
    sys.finalize();
    const RunMetrics m = sys.metrics();
    EXPECT_EQ(m.transactions, 10u);
    EXPECT_GT(m.avgCriticalPathNs, 0.0);
    EXPECT_GT(m.txPerSecond, 0.0);
    EXPECT_GT(m.nvmBytesWritten, 0u);
}

TEST(SystemMetrics, MeasurementWindowResets)
{
    SystemConfig cfg = txConfig();
    System sys(cfg, Scheme::Native);
    const Addr at = sys.alloc(0, 64);
    sys.txBegin(0);
    sys.storeWord(0, at, 1);
    sys.txEnd(0);
    sys.beginMeasurement();
    EXPECT_EQ(sys.committedTx(), 0u);
    EXPECT_EQ(sys.metrics().nvmBytesWritten, 0u);
}

} // namespace
} // namespace hoopnvm
