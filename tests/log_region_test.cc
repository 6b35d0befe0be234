/**
 * @file
 * Unit tests for the baseline log substrate: entry codec, ring
 * append/truncate, and the durable-state-only post-crash scan.
 */

#include <gtest/gtest.h>

#include <vector>

#include "baselines/log_region.hh"

namespace hoopnvm
{
namespace
{

struct LogFixture : ::testing::Test
{
    LogFixture()
        : nvm(miB(8), NvmTiming{}),
          log(nvm, 0, kiB(64))
    {
    }

    LogEntry
    dataEntry(TxId tx, Addr line, std::uint64_t w0)
    {
        LogEntry e;
        e.type = LogEntryType::RedoData;
        e.txId = tx;
        e.line = line;
        e.mask = 0x01;
        e.words[0] = w0;
        return e;
    }

    NvmDevice nvm;
    LogRegion log;
};

TEST_F(LogFixture, EntryCodecRoundTrip)
{
    LogEntry e;
    e.type = LogEntryType::UndoImage;
    e.txId = 77;
    e.commitId = 88;
    e.line = 0x1000;
    e.mask = 0xa5;
    e.count = 3;
    e.seq = 123;
    for (unsigned i = 0; i < 8; ++i)
        e.words[i] = i * 1111;
    std::uint8_t buf[LogEntry::kEntryBytes];
    e.encode(buf);
    const LogEntry d = LogEntry::decode(buf);
    EXPECT_EQ(d.type, LogEntryType::UndoImage);
    EXPECT_EQ(d.txId, 77u);
    EXPECT_EQ(d.commitId, 88u);
    EXPECT_EQ(d.line, 0x1000u);
    EXPECT_EQ(d.mask, 0xa5);
    EXPECT_EQ(d.count, 3);
    EXPECT_EQ(d.seq, 123u);
    EXPECT_EQ(d.words[7], 7u * 1111);
}

TEST_F(LogFixture, AppendAndScan)
{
    for (int i = 0; i < 5; ++i)
        log.append(0, dataEntry(1, 64 * i, i));
    EXPECT_EQ(log.size(), 5u);

    std::vector<std::uint64_t> seen;
    log.scan([&](const LogEntry &e) { seen.push_back(e.words[0]); });
    ASSERT_EQ(seen.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(seen[i], static_cast<std::uint64_t>(i));
}

TEST_F(LogFixture, TruncateHidesOldEntries)
{
    for (int i = 0; i < 6; ++i)
        log.append(0, dataEntry(1, 0, i));
    log.truncate(0, 4);
    EXPECT_EQ(log.size(), 2u);
    std::vector<std::uint64_t> seen;
    log.scan([&](const LogEntry &e) { seen.push_back(e.words[0]); });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 4u);
    EXPECT_EQ(seen[1], 5u);
}

TEST_F(LogFixture, ScanSurvivesWrapAround)
{
    const std::uint64_t cap = log.capacity();
    // Fill, truncate half, and append past the wrap point.
    for (std::uint64_t i = 0; i < cap; ++i)
        log.append(0, dataEntry(1, 0, i));
    log.truncate(0, cap / 2 + 2);
    for (std::uint64_t i = 0; i < cap / 2; ++i)
        log.append(0, dataEntry(2, 0, 1000 + i));

    std::uint64_t count = 0, first = ~0ull;
    log.scan([&](const LogEntry &e) {
        if (count == 0)
            first = e.words[0];
        ++count;
    });
    EXPECT_EQ(count, log.size());
    EXPECT_EQ(first, cap / 2 + 2); // oldest live entry
}

TEST_F(LogFixture, ScanIgnoresStaleWrappedEntries)
{
    // Old entries that were truncated but not overwritten must not
    // resurface in a post-crash scan.
    for (int i = 0; i < 8; ++i)
        log.append(0, dataEntry(1, 0, i));
    log.truncate(0, 8);
    std::uint64_t count = 0;
    log.scan([&](const LogEntry &) { ++count; });
    EXPECT_EQ(count, 0u);
}

TEST_F(LogFixture, ClearEmptiesLog)
{
    for (int i = 0; i < 3; ++i)
        log.append(0, dataEntry(1, 0, i));
    log.clear(0);
    EXPECT_EQ(log.size(), 0u);
    std::uint64_t count = 0;
    log.scan([&](const LogEntry &) { ++count; });
    EXPECT_EQ(count, 0u);
}

TEST_F(LogFixture, AppendsCountTraffic)
{
    const std::uint64_t before = nvm.bytesWritten();
    log.append(0, dataEntry(1, 0, 0));
    EXPECT_EQ(nvm.bytesWritten() - before, LogEntry::kEntryBytes);
}

} // namespace
} // namespace hoopnvm
