/**
 * @file
 * Tests for the runtime media-fault tolerance subsystem: the bounded
 * ECC/retry read path of NvmDevice, the durable slot-retirement
 * discipline of LogRegion (burns, canAppend reservation, recovery
 * scans skipping retired slots), and the system-level contracts —
 * scrub-driven retirement surviving crash + recovery, CheckRig's
 * TxRejected resolution (admission rejects skip, mid-transaction
 * unwinds crash + recover without losing committed data), and the
 * HOOP GC watermark under blocks with no usable slot.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/order_harness.hh"
#include "baselines/log_region.hh"
#include "check/rig.hh"
#include "check/soak.hh"
#include "common/errors.hh"
#include "nvm/nvm_device.hh"

namespace hoopnvm
{
namespace
{

constexpr Addr kBase = 0x10000;
constexpr std::size_t kLen = 256; // 32 words

/** Fill @p buf with a recognizable per-byte pattern. */
void
fillPattern(std::uint8_t *buf, std::size_t len, std::uint8_t tag)
{
    for (std::size_t i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(tag ^ (i * 131));
}

NvmDevice
makeTolerantDevice(std::uint64_t seed)
{
    const SystemConfig cfg;
    NvmDevice dev(cfg.nvmCapacity(), cfg.nvm);
    dev.faults().setSeed(seed);
    dev.faults().setEcc(1);
    dev.faults().setTransientFaults(4);
    dev.setReadRetryPolicy(4, nsToTicks(100), nsToTicks(20));
    return dev;
}

TEST(ReadRetry, TransientFaultsDeliverCleanData)
{
    // Regression guard for the retry-loop condition in
    // NvmDevice::read(): transient (read-disturb) words beyond the ECC
    // budget must be retried until they clear, never delivered corrupt
    // — a transient word leaked into a cache fill gets written back to
    // the home region later as silent permanent corruption.
    NvmDevice dev = makeTolerantDevice(1234);
    std::uint8_t data[kLen], got[kLen];
    fillPattern(data, kLen, 0x5a);
    dev.poke(kBase, data, kLen);
    dev.faults().addMediaFault(kBase, kBase + kLen,
                               MediaFaultKind::BitFlip, 1.0, 2);

    ReadFaultInfo rf;
    dev.read(0, kBase, got, kLen, &rf);
    EXPECT_EQ(std::memcmp(got, data, kLen), 0)
        << "a timed read delivered transient corruption instead of "
           "retrying it clear";
    EXPECT_EQ(rf.uncorrectableWords, 0u);
    EXPECT_EQ(rf.transientWords, 0u)
        << "the settled read still reports corrupt transient words";
    EXPECT_GT(rf.retries, 0u)
        << "2-bit flips beyond a 1-bit ECC must cost retries";
    EXPECT_GT(dev.readRetries(), 0u);
    EXPECT_EQ(dev.uncorrectableReads(), 0u);
}

TEST(ReadRetry, PermanentDamageSurfacesAsUncorrectable)
{
    // Stuck-at faults never clear: the retry budget is burned in full
    // and the read surfaces as uncorrectable (upstream CRCs or the
    // program-verify contract take it from there).
    NvmDevice dev = makeTolerantDevice(4321);
    std::vector<std::uint8_t> ones(kLen, 0xff);
    dev.poke(kBase, ones.data(), kLen);
    dev.faults().addMediaFault(kBase, kBase + kLen,
                               MediaFaultKind::StuckAtZero, 1.0, 3);

    std::uint8_t got[kLen];
    ReadFaultInfo rf;
    dev.read(0, kBase, got, kLen, &rf);
    EXPECT_TRUE(rf.uncorrectable());
    EXPECT_EQ(rf.retries, 4u)
        << "permanent damage must exhaust the whole retry budget";
    EXPECT_GT(dev.uncorrectableReads(), 0u);
    EXPECT_NE(std::memcmp(got, ones.data(), kLen), 0);
    EXPECT_TRUE(dev.faults().uncorrectableInRange(kBase, kLen))
        << "program-verify predicate disagrees with the read path";
}

/** Build a fault-tolerant LogRegion over a fresh device. */
struct LogFixture
{
    SystemConfig cfg;
    NvmDevice dev;
    static constexpr Addr kLogBase = 0x200000;
    static constexpr std::uint64_t kLogBytes = 64 * 1024;

    explicit LogFixture(std::uint64_t seed)
        : cfg(), dev(cfg.nvmCapacity(), cfg.nvm)
    {
        cfg.ft.enabled = true;
        dev.faults().setSeed(seed);
        dev.faults().setEcc(kEccCorrectBits);
        dev.faults().setTransientFaults(kReadRetryMax);
        dev.setReadRetryPolicy(kReadRetryMax, kReadRetryBackoff,
                               kEccCorrectCost);
    }

    LogEntry entry(std::uint64_t i) const
    {
        LogEntry e;
        e.type = LogEntryType::RedoData;
        e.txId = i;
        e.commitId = i * 3 + 1;
        e.line = kBase + i * 64;
        e.mask = 0xff;
        for (unsigned w = 0; w < 8; ++w)
            e.words[w] = i * 1000 + w;
        return e;
    }
};

TEST(LogRetirement, AppendsBurnPastBadSlotsAndRecoveryScansSkipThem)
{
    LogFixture fx(31);
    LogRegion log(fx.dev, LogFixture::kLogBase, LogFixture::kLogBytes,
                  &fx.cfg);
    ASSERT_TRUE(log.faultToleranceEnabled());

    // Damage a band of free ring slots beyond any ECC before the first
    // append lands on them.
    const auto free_ranges = log.freeSlotRanges();
    ASSERT_FALSE(free_ranges.empty());
    const Addr lo = free_ranges.front().first + 8 * 128;
    fx.dev.faults().addMediaFault(lo, lo + 16 * 128,
                                  MediaFaultKind::StuckAtOne, 1.0, 8);

    constexpr std::uint64_t kAppends = 100;
    Tick now = 0;
    for (std::uint64_t i = 0; i < kAppends; ++i) {
        ASSERT_TRUE(log.canAppend(1));
        now = log.append(now, fx.entry(i));
    }
    EXPECT_GT(log.retiredSlots(), 0u)
        << "appends crossed a fully-damaged band without retiring it";
    EXPECT_GT(log.degradedFraction(), 0.0);

    // Burns keep seq == logical index + 1: the live scan must yield
    // exactly the appended entries, oldest first, seqs strictly
    // ascending, none replaced by garbage from a burned slot.
    auto check_scan = [&](const LogRegion &lr, const char *when) {
        std::vector<LogEntry> seen;
        lr.scan([&](const LogEntry &e) { seen.push_back(e); });
        ASSERT_EQ(seen.size(), kAppends) << when;
        for (std::uint64_t i = 0; i < kAppends; ++i) {
            const LogEntry want = fx.entry(i);
            EXPECT_TRUE(seen[i].crcOk) << when;
            EXPECT_EQ(seen[i].txId, want.txId) << when;
            EXPECT_EQ(seen[i].commitId, want.commitId) << when;
            EXPECT_EQ(seen[i].words, want.words) << when;
            if (i > 0) {
                EXPECT_GT(seen[i].seq, seen[i - 1].seq) << when;
            }
        }
    };
    check_scan(log, "pre-crash scan");

    // Crash: a recovery-time LogRegion over the same area adopts the
    // durable retirement bitmap and must scan the same live suffix —
    // retired slots are skipped, not treated as a scan-cutting tear.
    LogRegion reborn(fx.dev, LogFixture::kLogBase,
                     LogFixture::kLogBytes, &fx.cfg);
    reborn.loadRetirement();
    EXPECT_EQ(reborn.retiredSlots(), log.retiredSlots())
        << "durable retirement bitmap did not round-trip";
    check_scan(reborn, "post-crash scan");
}

TEST(LogRetirement, CanAppendReservationIsExact)
{
    LogFixture fx(57);
    LogRegion log(fx.dev, LogFixture::kLogBase, LogFixture::kLogBytes,
                  &fx.cfg);

    // Make a band of slots unusable so exhaustion happens through a
    // mix of burns and real appends.
    const auto free_ranges = log.freeSlotRanges();
    ASSERT_FALSE(free_ranges.empty());
    const Addr lo = free_ranges.front().first + 32 * 128;
    fx.dev.faults().addMediaFault(lo, lo + 24 * 128,
                                  MediaFaultKind::StuckAtZero, 1.0, 8);

    // canAppend(1) is a reservation: while it holds, append() must
    // succeed; once it stops holding, append() must throw the
    // structured exhaustion error, not corrupt state or abort.
    Tick now = 0;
    std::uint64_t appended = 0;
    while (log.canAppend(1)) {
        ASSERT_NO_THROW(now = log.append(now, fx.entry(appended)));
        ++appended;
        ASSERT_LT(appended, 2 * log.capacity()) << "ring never filled";
    }
    EXPECT_GT(appended, 0u);
    try {
        log.append(now, fx.entry(appended));
        FAIL() << "append past a false canAppend(1) did not throw";
    } catch (const TxRejected &rj) {
        EXPECT_EQ(rj.cause, RejectCause::LogExhausted);
    }

    // Truncation frees slots and the reservation recovers.
    log.truncate(now, 8);
    EXPECT_TRUE(log.canAppend(1));
    EXPECT_NO_THROW(log.append(now, fx.entry(appended)));
}

/** The checkers' small machine with fault tolerance on and the
 *  scrubber running inside short windows. */
SystemConfig
toleranceConfig(unsigned cores, std::uint64_t seed)
{
    SystemConfig cfg = smallCheckConfig(cores, seed);
    cfg.ft.enabled = true;
    cfg.ft.scrubPeriod = cfg.gcPeriod;
    return cfg;
}

TEST(MediaTolerance, ScrubRetirementSurvivesCrashAndRecovery)
{
    CheckRig rig(toleranceConfig(2, 7), Scheme::Hoop, "vector", false,
                 "hoop/vector");
    rig.driver().runRounds(10); // warmup: put committed data on the media

    // Permanent damage over then-free capacity only: the program-
    // verify contract keeps new data off it, so committed data must
    // survive while the scrubber and allocators retire the bad units.
    rig.installRuntimeFaults(0.05, 0);
    rig.driver().runRounds(80);

    System &sys = rig.sys();
    const ControllerGauges before = sys.controller().sampleGauges();
    EXPECT_GT(before.retiredUnits, 0u)
        << "a 5% fault rate over free capacity retired nothing";
    EXPECT_GT(before.correctedWords, 0u)
        << "single-bit stripes produced no ECC corrections";

    sys.crash();
    sys.recover(2);
    rig.dropPendingShadows();

    const ControllerGauges after = sys.controller().sampleGauges();
    EXPECT_GE(after.retiredUnits, before.retiredUnits)
        << "recovery forgot durably retired units";
    std::string detail;
    EXPECT_TRUE(rig.oracle("after crash + recovery on accumulated damage",
                           &detail))
        << detail;
}

TEST(MediaTolerance, MidTxRejectionUnwindsThroughCrashRecovery)
{
    // Deterministic mid-transaction rejection: disable the admission
    // gate (rejectCapacityFraction > 1 never trips) and make every
    // free log slot uncorrectable, so the ring exhausts through burns
    // mid-transaction. The contract: a structured TxRejected — never
    // an abort — and crash + recovery discards the partial transaction
    // while keeping everything committed before it.
    // A small aux region keeps the ring short: exhausting it burns
    // (and durably retires) every slot once, so ring size is the
    // dominant cost of this test.
    SystemConfig cfg = toleranceConfig(1, 11);
    cfg.ft.rejectCapacityFraction = 2.0;
    cfg.auxBytes = 2 * 1024 * 1024;
    CheckRig rig(cfg, Scheme::OptRedo, "vector", false, "redo/vector");
    System &sys = rig.sys();
    rig.driver().runRounds(10);

    for (const auto &r : sys.controller().freeMediaRanges())
        sys.nvm().faults().addMediaFault(
            r.first, r.second, MediaFaultKind::StuckAtOne, 1.0, 8);

    // One core: each round is a transaction, then maintenance. The
    // first reject stops the run before its round's maintenance.
    std::optional<TxRejected> rejected;
    rig.driver().runRounds(200, [&](unsigned, const TxRejected *rj) {
        if (rj)
            rejected = *rj;
        return !rj;
    });
    ASSERT_TRUE(rejected)
        << "ring with every free slot uncorrectable never exhausted";
    EXPECT_NE(rejected->cause, RejectCause::CapacityDegraded)
        << "admission gate fired despite being disabled";

    EXPECT_TRUE(rig.resolveReject(*rejected, 0, 1))
        << "a mid-transaction unwind must crash and recover";
    std::string detail;
    EXPECT_TRUE(rig.oracle("after mid-tx rejection unwound through "
                           "recovery",
                           &detail))
        << detail;
}

TEST(MediaTolerance, AdmissionRejectDropsOnlyThatCoresShadow)
{
    // CapacityDegraded refuses txBegin before any transactional state
    // exists: resolveReject() neither crashes nor recovers, and drops
    // the staged shadow of the rejecting core alone.
    CheckRig rig(toleranceConfig(2, 5), Scheme::Hoop, "vector", false,
                 "hoop/vector");
    System &sys = rig.sys();
    rig.driver().runRounds(5);
    // A crash inside txEnd leaves the commit's shadow update staged.
    sys.scheduleCrashAtCommit(1);
    Workload &wl0 = rig.driver().wl(0);
    EXPECT_THROW(wl0.runTransaction(5), SimCrash);
    ASSERT_TRUE(wl0.hasPendingShadow());

    const TxRejected admission{RejectCause::CapacityDegraded, ""};
    const std::uint64_t recoveries =
        sys.controller().stats().value("recoveries");
    EXPECT_FALSE(rig.resolveReject(admission, 1, 2));
    EXPECT_TRUE(wl0.hasPendingShadow())
        << "a reject on core 1 dropped core 0's staged shadow";
    EXPECT_FALSE(rig.resolveReject(admission, 0, 2));
    EXPECT_FALSE(wl0.hasPendingShadow());
    EXPECT_EQ(sys.controller().stats().value("recoveries"), recoveries)
        << "an admission reject crashed and recovered";
}

TEST(MediaTolerance, ExhaustionRejectsCrashAndRecover)
{
    // OopExhausted and LogExhausted unwind a transaction that has
    // partial effects and no commit record: resolveReject() crashes,
    // recovers and drops every core's staging, and the rig serves on
    // from a survivor state that holds every commit.
    for (const auto &[scheme, cause] :
         {std::pair{Scheme::Hoop, RejectCause::OopExhausted},
          std::pair{Scheme::OptRedo, RejectCause::LogExhausted}}) {
        SCOPED_TRACE(rejectCauseName(cause));
        CheckRig rig(toleranceConfig(2, 9), scheme, "vector", false,
                     schemeToken(scheme));
        rig.driver().runRounds(10);
        const StatSet &stats = rig.sys().controller().stats();
        const std::uint64_t recoveries = stats.value("recoveries");
        EXPECT_TRUE(rig.resolveReject({cause, ""}, 0, 2));
        EXPECT_EQ(stats.value("recoveries"), recoveries + 1);
        std::string detail;
        EXPECT_TRUE(rig.oracle("after the unwind", &detail)) << detail;
        rig.driver().runRounds(5);
        EXPECT_TRUE(rig.oracle("serving after the unwind", &detail))
            << detail;
    }
}

TEST(MediaTolerance, GcWatermarkNeverPassesALiveBlock)
{
    // Regression: at fault_prob 0.5 every slot of one OOP block sat on
    // uncorrectable cells, so the block took no slice and the next
    // block opened at the same openSeq. GC collected the empty block
    // and wrote the watermark one past it, and recovery then skipped
    // the live block as recycled and lost its commits.
    SoakSpec spec;
    spec.scheme = Scheme::Hoop;
    spec.workload = "vector";
    spec.seed = 42;
    spec.phases = 1;
    spec.txPerPhase = 10;
    spec.faultProb = 0.5;
    const SoakResult r = runSoak(spec);
    EXPECT_FALSE(r.violated) << r.detail;
    EXPECT_GT(r.retiredUnits, 0u);
}

} // namespace
} // namespace hoopnvm
