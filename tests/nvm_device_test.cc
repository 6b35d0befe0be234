/**
 * @file
 * Unit tests for the NVM device model: functional sparse storage,
 * latency/bandwidth timing, traffic counters and the energy model.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nvm/nvm_device.hh"

namespace hoopnvm
{
namespace
{

NvmTiming
testTiming()
{
    NvmTiming t;
    t.readLatency = nsToTicks(50);
    t.writeLatency = nsToTicks(150);
    t.bandwidthBytesPerSec = 25e9;
    return t;
}

TEST(NvmDevice, ReadsBackWrittenBytes)
{
    NvmDevice dev(miB(16), testTiming());
    const char msg[] = "hello, persistent world!";
    dev.write(0, 4096, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    dev.read(0, 4096, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(NvmDevice, UnwrittenBytesReadZero)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[64];
    std::memset(buf, 0xab, sizeof(buf));
    dev.peek(miB(1), buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST(NvmDevice, CrossPageAccess)
{
    NvmDevice dev(miB(16), testTiming());
    std::vector<std::uint8_t> in(10000);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 7);
    dev.poke(4000, in.data(), in.size()); // spans multiple 4K pages
    std::vector<std::uint8_t> out(in.size());
    dev.peek(4000, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(NvmDevice, ReadLatencyApplied)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[64];
    const Tick done = dev.read(0, 0, buf, 64);
    // 50 ns latency + 64 B / 25 GB/s transfer.
    EXPECT_GE(done, nsToTicks(50));
    EXPECT_LT(done, nsToTicks(60));
}

TEST(NvmDevice, WriteLatencyApplied)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[64] = {};
    const Tick done = dev.write(0, 0, buf, 64);
    EXPECT_GE(done, nsToTicks(150));
    EXPECT_LT(done, nsToTicks(160));
}

TEST(NvmDevice, BandwidthSerializesTransfers)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[4096] = {};
    // Issue many back-to-back writes at t=0; the channel must
    // serialize their transfer phases.
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = dev.write(0, 0, buf, 4096);
    const double expected_ns = 100 * 4096 / 25e9 * 1e9; // ~16.4 us
    EXPECT_GT(ticksToNs(last), expected_ns * 0.9);
}

TEST(NvmDevice, CountersTrackTraffic)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[128] = {};
    dev.write(0, 0, buf, 128);
    dev.read(0, 0, buf, 64);
    dev.writeAccounting(0, 64);
    dev.readAccounting(0, 32);
    EXPECT_EQ(dev.bytesWritten(), 192u);
    EXPECT_EQ(dev.bytesRead(), 96u);
    EXPECT_EQ(dev.writeAccesses(), 2u);
    EXPECT_EQ(dev.readAccesses(), 2u);
    dev.resetCounters();
    EXPECT_EQ(dev.bytesWritten(), 0u);
    EXPECT_EQ(dev.bytesRead(), 0u);
}

TEST(NvmDevice, EnergyChargesPerBit)
{
    EnergyParams p;
    NvmDevice dev(miB(16), testTiming(), p);
    std::uint8_t buf[64] = {};
    dev.write(0, 0, buf, 64);
    const double expected_write =
        64 * 8 * (p.rowBufferWritePjPerBit + p.arrayWritePjPerBit);
    EXPECT_DOUBLE_EQ(dev.energy().writeEnergyPj(), expected_write);
    dev.read(0, 0, buf, 64);
    const double expected_read =
        64 * 8 * (p.rowBufferReadPjPerBit + p.arrayReadPjPerBit);
    EXPECT_DOUBLE_EQ(dev.energy().readEnergyPj(), expected_read);
    // Writes are far more expensive than reads (Table II).
    EXPECT_GT(dev.energy().writeEnergyPj(),
              dev.energy().readEnergyPj() * 4);
}

TEST(NvmDevice, PokeDoesNotCount)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[64] = {};
    dev.poke(0, buf, 64);
    dev.peek(0, buf, 64);
    EXPECT_EQ(dev.bytesWritten(), 0u);
    EXPECT_EQ(dev.bytesRead(), 0u);
}

TEST(NvmDevice, WordHelpers)
{
    NvmDevice dev(miB(1), testTiming());
    dev.pokeWord(512, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(dev.peekWord(512), 0xdeadbeefcafef00dULL);
}

TEST(NvmDevice, ClearDropsState)
{
    NvmDevice dev(miB(1), testTiming());
    dev.pokeWord(0, 42);
    std::uint8_t buf[8] = {};
    dev.write(0, 0, buf, 8);
    dev.clear();
    EXPECT_EQ(dev.peekWord(0), 0u);
    EXPECT_EQ(dev.bytesWritten(), 0u);
    EXPECT_EQ(dev.channelFree(), 0u);
}

// ---------------------------------------------------------------------
// Page-table edges: pages are 4 KiB and the table's second level
// covers 2 MiB spans; both levels are allocated on first write.
// ---------------------------------------------------------------------

TEST(NvmPageTable, LastWordOfCapacity)
{
    NvmDevice dev(miB(16), testTiming());
    const Addr last = dev.capacity() - kWordSize;
    dev.pokeWord(last, 0x0123456789abcdefULL);
    EXPECT_EQ(dev.peekWord(last), 0x0123456789abcdefULL);
    std::uint64_t v = 0;
    dev.write(0, last, &v, sizeof(v));
    v = 1;
    dev.read(0, last, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
}

TEST(NvmPageTable, WriteAcrossPageAndTableBoundary)
{
    NvmDevice dev(miB(16), testTiming());
    // Starts two pages below the 2 MiB boundary and ends a page past
    // it: three page boundaries, one of them a table boundary.
    const Addr start = miB(2) - 2 * 4096 + 100;
    std::vector<std::uint8_t> in(3 * 4096);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 13 + 1);
    dev.write(0, start, in.data(), in.size());
    std::vector<std::uint8_t> out(in.size());
    dev.read(0, start, out.data(), out.size());
    EXPECT_EQ(in, out);
    // The bytes just outside the write stay zero on both sides.
    EXPECT_EQ(dev.peekWord(start - kWordSize), 0u);
    EXPECT_EQ(dev.peekWord(start + in.size()), 0u);
}

TEST(NvmPageTable, UntouchedPagesReadZero)
{
    NvmDevice dev(miB(16), testTiming());
    dev.pokeWord(miB(4), 7);
    std::uint8_t buf[64];
    // An untouched page inside the allocated 2 MiB table...
    std::memset(buf, 0xab, sizeof(buf));
    dev.peek(miB(4) + 8 * 4096, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    // ...and pages of tables never allocated, below and above it.
    for (Addr a : {Addr{0}, miB(2), miB(12)}) {
        std::memset(buf, 0xab, sizeof(buf));
        dev.read(0, a, buf, sizeof(buf));
        for (auto b : buf)
            EXPECT_EQ(b, 0) << "at 0x" << std::hex << a;
    }
}

TEST(NvmPageTable, ClearDropsEveryPage)
{
    NvmDevice dev(miB(16), testTiming());
    const Addr addrs[] = {0, miB(2) - kWordSize, miB(2), miB(9) + 4096,
                          dev.capacity() - kWordSize};
    for (Addr a : addrs)
        dev.pokeWord(a, a + 1);
    dev.clear();
    for (Addr a : addrs)
        EXPECT_EQ(dev.peekWord(a), 0u) << "at 0x" << std::hex << a;
    // The cleared device fills in again on the next write.
    dev.pokeWord(miB(2), 5);
    EXPECT_EQ(dev.peekWord(miB(2)), 5u);
}

TEST(NvmPageTableDeathTest, PeekAtCapacityDies)
{
    NvmDevice dev(miB(16), testTiming());
    EXPECT_DEATH(dev.peekWord(dev.capacity()), "out of range");
}

// ---------------------------------------------------------------------
// PR 10 channel-accounting regressions.
// ---------------------------------------------------------------------

TEST(NvmChannel, EccSurchargeOccupiesTheChannel)
{
    // Regression: the per-corrected-word ECC surcharge used to be
    // charged to the requester's completion time only; the channel was
    // marked free as if the correction pipeline were off-device, so a
    // competing read slipped into the correction window. The surcharge
    // must extend channelFree by exactly the same amount it extends the
    // read's own completion. Fully-correctable faults (1-bit flips
    // against 1-bit ECC) keep retries out of the picture.
    constexpr std::size_t kLen = 256; // 32 words
    const Tick ecc_cost = nsToTicks(20);

    NvmDevice clean(miB(16), testTiming());
    NvmDevice faulty(miB(16), testTiming());
    faulty.faults().setSeed(99);
    faulty.faults().setEcc(1);
    faulty.setReadRetryPolicy(4, nsToTicks(100), ecc_cost);
    faulty.faults().addMediaFault(0x1000, 0x1000 + kLen,
                                  MediaFaultKind::BitFlip, 1.0, 1);

    std::uint8_t buf[kLen];
    ReadFaultInfo rf;
    const Tick done_clean = clean.read(0, 0x1000, buf, kLen);
    const Tick done_faulty = faulty.read(0, 0x1000, buf, kLen, &rf);
    ASSERT_GT(rf.correctedWords, 0u);
    ASSERT_EQ(rf.retries, 0u) << "1-bit flips must not trigger retries";

    const Tick surcharge = ecc_cost * rf.correctedWords;
    EXPECT_EQ(done_faulty, done_clean + surcharge);
    EXPECT_EQ(faulty.channelFree(), clean.channelFree() + surcharge)
        << "ECC surcharge left the channel free during correction";
    EXPECT_EQ(faulty.channelBusyTicks(),
              clean.channelBusyTicks() + surcharge);

    // And a follow-up requester really queues behind the correction:
    // its completion shifts by the full surcharge too.
    const Tick next_clean = clean.read(0, 0x8000, buf, kLen);
    const Tick next_faulty = faulty.read(0, 0x8000, buf, kLen);
    EXPECT_EQ(next_faulty, next_clean + surcharge);
}

TEST(NvmChannel, DrainFenceBoundsAndHoldsTheChannel)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[64] = {};
    dev.write(0, 0, buf, sizeof(buf));
    const Tick free_before = dev.channelFree();

    // The fence bound is channelFree + writeLatency: every issued write
    // holds its channel slot, then completes one (pipelined) array
    // write later.
    const Tick bound = dev.drainFence(0);
    EXPECT_EQ(bound, free_before + nsToTicks(150));
    EXPECT_EQ(dev.channelFree(), bound)
        << "the drain window must occupy the channel, not just "
           "timestamp it";
    EXPECT_EQ(dev.drainFences(), 1u);

    // Regression: a read issued *after* the fence but at an earlier
    // core clock used to start at its own clock, inside the very
    // window the fence drains. It must queue behind the bound.
    const Tick done = dev.read(0, 4096, buf, sizeof(buf));
    EXPECT_GE(done, bound + nsToTicks(50));
    EXPECT_GT(dev.channelWaitTicks(), 0u);

    // A fence issued when the channel is long idle is a no-op bound:
    // it returns `now` and holds nothing extra.
    NvmDevice idle(miB(16), testTiming());
    EXPECT_EQ(idle.drainFence(nsToTicks(500)), nsToTicks(500));
}

TEST(NvmChannel, GaugesAccumulateAndReset)
{
    NvmDevice dev(miB(16), testTiming());
    std::uint8_t buf[64] = {};

    // First read at t=0 takes the idle channel: busy accrues, wait
    // does not.
    dev.read(0, 0, buf, sizeof(buf));
    const std::uint64_t hold = dev.channelBusyTicks();
    EXPECT_GT(hold, 0u);
    EXPECT_EQ(dev.channelWaitTicks(), 0u);

    // Second read also issued at t=0 queues for the full first hold.
    dev.read(0, 4096, buf, sizeof(buf));
    EXPECT_EQ(dev.channelWaitTicks(), hold);
    EXPECT_EQ(dev.channelBusyTicks(), 2 * hold);

    dev.drainFence(0);
    EXPECT_EQ(dev.drainFences(), 1u);

    dev.resetCounters();
    EXPECT_EQ(dev.channelBusyTicks(), 0u);
    EXPECT_EQ(dev.channelWaitTicks(), 0u);
    EXPECT_EQ(dev.drainFences(), 0u);
    // resetCounters is a measurement boundary, not a time machine: the
    // channel stays reserved.
    EXPECT_GT(dev.channelFree(), 0u);
}

} // namespace
} // namespace hoopnvm
