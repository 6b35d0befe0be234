/**
 * @file
 * Atomic-durability property tests: a crash is injected at a randomized
 * store inside a transaction stream; after recovery the visible state
 * must equal exactly the committed prefix — for every persistent
 * scheme, every workload, and many crash points.
 *
 * This is the paper's core guarantee ("a set of data updates must
 * behave in an atomic, consistent, and durable manner with respect to
 * system failures and crashes", §II-A) verified mechanically.
 */

#include <gtest/gtest.h>

#include "analysis/order_harness.hh"
#include "common/rng.hh"
#include "hoop/hoop_controller.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
crashConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(64);
    cfg.oopBytes = miB(8);
    cfg.auxBytes = miB(64) + miB(8);
    // Tiny caches widen the crash surface: lots of evictions.
    cfg.cache.l1Size = kiB(1);
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Size = kiB(4);
    cfg.cache.l2Assoc = 2;
    cfg.cache.llcSize = kiB(16);
    cfg.cache.llcAssoc = 4;
    return cfg;
}

WorkloadParams
crashParams()
{
    WorkloadParams p;
    p.valueBytes = 64;
    p.scale = 128;
    return p;
}

/**
 * Run @p warmup_tx committed transactions per core, then schedule a
 * crash @p crash_after_stores stores into the continuing stream,
 * recover, and verify every workload against its committed shadow.
 */
void
crashAndVerify(Scheme scheme, const char *wl_name,
               std::uint64_t warmup_tx,
               std::uint64_t crash_after_stores, unsigned threads,
               std::uint64_t torn_seed = 0)
{
    SystemConfig cfg = crashConfig();
    System sys(cfg, scheme);
    if (torn_seed != 0) {
        sys.nvm().faults().setSeed(torn_seed);
        sys.nvm().faults().setTornWrites(true);
    }
    RunDriver driver(sys, makeWorkload(wl_name, crashParams()));
    driver.runRounds(warmup_tx);

    // Crash somewhere inside the upcoming transactions, which run with
    // no maintenance between them.
    sys.scheduleCrashAfterStores(crash_after_stores);
    bool crashed = false;
    try {
        for (std::uint64_t i = warmup_tx; i < warmup_tx + 50; ++i) {
            for (unsigned c = 0; c < cfg.numCores; ++c)
                driver.wl(c).runTransaction(i);
        }
    } catch (const SimCrash &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed) << "crash point never reached";

    sys.crash();
    sys.recover(threads);

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        EXPECT_TRUE(driver.wl(c).verify())
            << schemeName(scheme) << "/" << wl_name << " core " << c
            << " crash_after=" << crash_after_stores;
        std::string why;
        EXPECT_TRUE(driver.wl(c).verifyStructure(&why))
            << schemeName(scheme) << "/" << wl_name << " core " << c
            << " crash_after=" << crash_after_stores << ": " << why;
    }
}

/** (scheme, workload) matrix with randomized crash points. */
class CrashMatrix
    : public ::testing::TestWithParam<std::tuple<Scheme, const char *>>
{
};

TEST_P(CrashMatrix, AtomicDurabilityAcrossCrashPoints)
{
    const auto [scheme, wl] = GetParam();
    Rng rng(0xc7a54 + static_cast<int>(scheme));
    for (int trial = 0; trial < 6; ++trial) {
        const std::uint64_t point = 1 + rng.nextBounded(400);
        const unsigned threads = 1 + rng.nextBounded(4);
        crashAndVerify(scheme, wl, 10, point,
                       static_cast<unsigned>(threads));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistentSchemes, CrashMatrix,
    ::testing::Combine(
        ::testing::Values(Scheme::Hoop, Scheme::OptRedo,
                          Scheme::OptUndo, Scheme::Osp, Scheme::Lsm,
                          Scheme::Lad),
        ::testing::Values("vector", "hashmap", "queue", "rbtree",
                          "btree", "ycsb", "tpcc")),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_" + std::get<1>(info.param);
    });

TEST(CrashEdgeCases, CrashOnVeryFirstStore)
{
    crashAndVerify(Scheme::Hoop, "vector", 0, 1, 2);
}

TEST(CrashEdgeCases, CrashDuringGcWindow)
{
    // Force frequent GC so the crash lands near GC activity.
    SystemConfig cfg = crashConfig();
    cfg.gcPeriod = nsToTicks(1000);
    System sys(cfg, Scheme::Hoop);
    auto factory = makeWorkload("hashmap", crashParams());
    auto wl = factory(sys, 0);
    wl->setup();
    for (int i = 0; i < 30; ++i) {
        wl->runTransaction(i);
        sys.maintenance();
    }
    sys.scheduleCrashAfterStores(37);
    try {
        for (int i = 30; i < 60; ++i) {
            wl->runTransaction(i);
            sys.maintenance();
        }
        FAIL() << "crash never fired";
    } catch (const SimCrash &) {
    }
    sys.crash();
    sys.recover(2);
    EXPECT_TRUE(wl->verify());
}

// ---- Fault-injection regimes (torn writes and media faults) ----

TEST(FaultRegimes, TornWritesAcrossCrashPoints)
{
    // Same property as the clean-crash matrix, but every write still in
    // flight at the crash tears at word granularity. HOOP's commit ack
    // waits for the commit record, and the channel completes writes in
    // issue order, so tearing the in-flight suffix must never damage
    // committed state.
    Rng rng(0x7ea5);
    const char *wls[] = {"vector", "hashmap", "queue", "btree"};
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint64_t point = 1 + rng.nextBounded(400);
        const unsigned threads =
            1 + static_cast<unsigned>(rng.nextBounded(4));
        crashAndVerify(Scheme::Hoop, wls[trial % 4], 10, point, threads,
                       0xbadc0de + trial);
    }
}

/**
 * Manual harness with per-transaction, line-aligned address regions:
 * transaction i stores 8 known words into its own cache line, so
 * post-recovery each line must hold either all of the transaction's
 * words or none of them (all-or-nothing is decidable per line).
 */
class CommitTearHarness
{
  public:
    explicit CommitTearHarness(std::uint64_t seed)
    {
        cfg_.numCores = 1;
        cfg_.gcPeriod = nsToTicks(1'000'000'000); // keep GC out
        // Small blocks spread the transactions across several of them,
        // so corruption exercises many independent live-area cuts.
        cfg_.oopBytes = miB(1);
        cfg_.oopBlockBytes = kiB(8);
        sys_ = std::make_unique<System>(cfg_, Scheme::Hoop);
        sys_->nvm().faults().setSeed(seed);
        sys_->nvm().faults().setTornWrites(true);
        base_ = sys_->alloc(0, kTxCount * kCacheLineSize,
                            kCacheLineSize);
        probe_ = sys_->alloc(0, kTxCount * kCacheLineSize,
                             kCacheLineSize);
    }

    static std::uint64_t
    wordValue(std::uint64_t tx, unsigned w)
    {
        return (tx + 1) * 0x9e3779b97f4a7c15ULL + w;
    }

    /** Run transaction @p tx (8 stores into its line) to completion. */
    void
    runTx(std::uint64_t tx)
    {
        sys_->txBegin(0);
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            sys_->storeWord(0, base_ + tx * kCacheLineSize +
                                   w * kWordSize,
                            wordValue(tx, w));
        }
        // Drain the channel before committing: one cold load syncs the
        // core to the channel, then L1 hits (which advance the clock
        // without touching the channel) carry it past every issued
        // write's completion (≤ channelFree + writeLatency). A crash
        // inside the following txEnd then finds exactly one write in
        // flight — the commit record.
        const Addr probe = probe_ + tx * kCacheLineSize;
        sys_->loadWord(0, probe);
        while (sys_->core(0).clock() <=
               sys_->nvm().channelFree() +
                   sys_->nvm().timing().writeLatency)
            sys_->loadWord(0, probe);
        sys_->txEnd(0);
    }

    /** Post-recovery: is @p tx's line all-new, all-zero, or mixed? */
    enum class LineState
    {
        AllNew,
        AllOld,
        Mixed
    };

    LineState
    lineState(std::uint64_t tx)
    {
        unsigned news = 0, olds = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            const std::uint64_t v = sys_->debugLoadWord(
                base_ + tx * kCacheLineSize + w * kWordSize);
            if (v == wordValue(tx, w))
                ++news;
            else if (v == 0)
                ++olds;
        }
        if (news == kWordsPerLine)
            return LineState::AllNew;
        if (olds == kWordsPerLine)
            return LineState::AllOld;
        return LineState::Mixed;
    }

    System &sys() { return *sys_; }

    const RecoveryResult &
    lastRecovery() const
    {
        return static_cast<HoopController &>(sys_->controller())
            .lastRecovery();
    }

    static constexpr std::uint64_t kTxCount = 64;

  private:
    SystemConfig cfg_;
    std::unique_ptr<System> sys_;
    Addr base_ = 0;
    Addr probe_ = 0;
};

TEST(FaultRegimes, TornCommitRecordNeverReplays)
{
    // Crash inside txEnd with the commit record still in flight, for
    // many seeds: the record's tear pattern varies, and whenever
    // recovery reports a torn commit the victim transaction must be
    // absent in full. Every earlier (acknowledged) transaction must be
    // present in full.
    std::uint64_t torn_seen = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        CommitTearHarness h(seed);
        const std::uint64_t committed = 5 + (seed % 7);
        for (std::uint64_t tx = 0; tx < committed; ++tx)
            h.runTx(tx);

        h.sys().scheduleCrashAtCommit(1);
        bool crashed = false;
        try {
            h.runTx(committed);
        } catch (const SimCrash &) {
            crashed = true;
        }
        ASSERT_TRUE(crashed) << "commit crash point never fired";

        h.sys().crash();
        h.sys().recover(2);
        const RecoveryResult &r = h.lastRecovery();

        for (std::uint64_t tx = 0; tx < committed; ++tx) {
            EXPECT_EQ(h.lineState(tx), CommitTearHarness::LineState::AllNew)
                << "acknowledged tx " << tx << " damaged (seed " << seed
                << ")";
        }
        const auto last = h.lineState(committed);
        EXPECT_NE(last, CommitTearHarness::LineState::Mixed)
            << "unacknowledged tx partially surfaced (seed " << seed
            << ")";
        if (r.tornCommitsDetected > 0) {
            ++torn_seen;
            EXPECT_EQ(last, CommitTearHarness::LineState::AllOld)
                << "a torn commit record replayed (seed " << seed << ")";
        }
    }
    // The per-word coin leaves the 128-byte record intact with
    // probability 2^-16 per crash; across 24 seeds tears must occur.
    EXPECT_GT(torn_seen, 0u) << "sweep never exercised a torn record";
}

TEST(FaultRegimes, BitFlipsVetoButNeverMixTransactions)
{
    // Commit transactions cleanly, crash, then corrupt the OOP region
    // at rest before recovery runs: stuck-at faults land in slices and
    // commit records. Recovery may veto affected transactions (their
    // lines stay old) but must never surface part of one, and must
    // report what it rejected.
    CommitTearHarness h(77);
    for (std::uint64_t tx = 0; tx < CommitTearHarness::kTxCount; ++tx)
        h.runTx(tx);

    h.sys().crash();
    const SystemConfig &cfg = h.sys().config();
    h.sys().nvm().faults().addMediaFault(
        cfg.oopBase(), cfg.oopBase() + cfg.oopBytes,
        MediaFaultKind::StuckAtOne, 0.05);
    h.sys().recover(2);
    const RecoveryResult first = h.lastRecovery();

    std::uint64_t vetoed = 0;
    for (std::uint64_t tx = 0; tx < CommitTearHarness::kTxCount; ++tx) {
        const auto st = h.lineState(tx);
        ASSERT_NE(st, CommitTearHarness::LineState::Mixed)
            << "tx " << tx << " partially replayed under media faults";
        if (st == CommitTearHarness::LineState::AllOld)
            ++vetoed;
    }
    // 5% faulty words across the whole region must hit live slices,
    // recovery must classify the damage as media faults, and some
    // transaction must actually have been vetoed by it.
    EXPECT_GT(first.slicesRejected + first.headersRejected, 0u);
    EXPECT_GT(first.bitFlipsDetected, 0u);
    EXPECT_GT(vetoed, 0u);

    // Idempotence: crash and recover again with the faults still
    // scheduled; the surviving state must not change.
    std::vector<CommitTearHarness::LineState> before;
    for (std::uint64_t tx = 0; tx < CommitTearHarness::kTxCount; ++tx)
        before.push_back(h.lineState(tx));
    h.sys().crash();
    h.sys().recover(3);
    for (std::uint64_t tx = 0; tx < CommitTearHarness::kTxCount; ++tx) {
        EXPECT_EQ(h.lineState(tx), before[tx])
            << "second recovery changed tx " << tx;
    }
}

/**
 * Recovery idempotence for every persistent scheme: crash, arm a
 * second crash partway through recovery, re-enter recovery on the
 * twice-crashed image — the visible state must be the same committed
 * prefix a single recovery would have produced.
 */
class RecoveryIdempotence : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(RecoveryIdempotence, SecondRecoveryYieldsSameState)
{
    const Scheme scheme = GetParam();
    for (std::uint64_t rec_point : {1u, 2u, 5u, 9u}) {
        SystemConfig cfg = crashConfig();
        System sys(cfg, scheme);
        auto wl = makeWorkload("hashmap", crashParams())(sys, 0);
        wl->setup();
        for (int i = 0; i < 25; ++i) {
            wl->runTransaction(i);
            sys.maintenance();
        }

        sys.crash();
        sys.crashHook().arm(CrashPointKind::RecoveryStep, rec_point);
        bool rec_crashed = false;
        try {
            sys.recover(2);
        } catch (const SimCrash &) {
            rec_crashed = true;
            sys.crash();
        }
        sys.crashHook().disarm(CrashPointKind::RecoveryStep);
        if (rec_crashed)
            sys.recover(3);

        EXPECT_TRUE(wl->verify())
            << schemeName(scheme) << " rec_point=" << rec_point
            << " rec_crashed=" << rec_crashed;
        std::string why;
        EXPECT_TRUE(wl->verifyStructure(&why))
            << schemeName(scheme) << " rec_point=" << rec_point << ": "
            << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistentSchemes, RecoveryIdempotence,
    ::testing::Values(Scheme::Hoop, Scheme::OptRedo, Scheme::OptUndo,
                      Scheme::Osp, Scheme::Lsm, Scheme::Lad),
    [](const auto &info) {
        std::string n = schemeName(info.param);
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

/**
 * Recovery reads only the durable image: a fresh System that adopted a
 * crashed system's image (NVM device and core clocks, nothing
 * volatile) must recover to the same state as the crashed system
 * itself. The crash explorer judges every crash point on such a fork,
 * so a scheme whose recovery leaned on state that survives crash() in
 * its controller would make the explorer judge a different machine.
 */
class AdoptedImage
    : public ::testing::TestWithParam<std::tuple<Scheme, bool>>
{
};

TEST_P(AdoptedImage, RecoversLikeTheCrashedSystem)
{
    const auto [scheme, torn] = GetParam();
    // The explorer's machine: small OOP blocks and a short GC period
    // put GC / checkpoint steps inside the window.
    const SystemConfig cfg = smallCheckConfig(2, 42);
    for (CrashPointKind kind :
         {CrashPointKind::Store, CrashPointKind::CommitRecord,
          CrashPointKind::GcStep}) {
        unsigned fired = 0;
        for (std::uint64_t point : {1u, 9u, 33u}) {
            System sys(cfg, scheme);
            if (torn) {
                sys.nvm().faults().setSeed(0x1ea5e + point);
                sys.nvm().faults().setTornWrites(true);
            }
            RunDriver driver(sys, makeWorkload("btree", crashParams()));
            driver.runRounds(10);
            sys.crashHook().arm(kind, point);
            bool crashed = false;
            try {
                driver.runRounds(40);
            } catch (const SimCrash &) {
                crashed = true;
            }
            if (!crashed)
                continue; // the scheme has fewer events of this class
            ++fired;

            System image(cfg, scheme);
            image.adoptImage(sys);
            sys.crash();
            sys.recover(2);
            image.crash();
            image.recover(2);

            const std::string at = std::string(schemeName(scheme)) +
                                   (torn ? " torn " : " clean ") +
                                   crashPointKindToken(kind) + " #" +
                                   std::to_string(point);
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                const Addr base = cfg.homeBase() +
                                  c * sys.allocator().arenaBytes();
                const std::uint64_t used = sys.allocator().bytesUsed(c);
                std::vector<std::uint8_t> want(used), got(used);
                sys.nvm().peek(base, want.data(), used);
                image.nvm().peek(base, got.data(), used);
                EXPECT_EQ(got, want) << at << ": core " << c
                                     << " home bytes differ";

                Workload &wl = driver.wl(c);
                std::string why_sys, why_image;
                const bool same_sys = wl.verify();
                const bool shape_sys = wl.verifyStructure(&why_sys);
                wl.rebind(image);
                const bool same_image = wl.verify();
                const bool shape_image = wl.verifyStructure(&why_image);
                wl.rebind(sys);
                EXPECT_EQ(same_image, same_sys) << at << ": core " << c;
                EXPECT_EQ(shape_image, shape_sys) << at << ": core " << c;
                EXPECT_EQ(why_image, why_sys) << at << ": core " << c;
            }
        }
        EXPECT_GT(fired, 0u) << schemeName(scheme) << " never crashed at "
                             << crashPointKindToken(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistentSchemes, AdoptedImage,
    ::testing::Combine(::testing::ValuesIn(kDurableSchemes),
                       ::testing::Bool()),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + (std::get<1>(info.param) ? "_torn" : "_clean");
    });

TEST(CrashEdgeCases, DoubleCrashDuringRecoveryWindow)
{
    // Crash, recover, immediately crash again before any new work:
    // state must stay the committed one (recovery idempotence).
    SystemConfig cfg = crashConfig();
    System sys(cfg, Scheme::Hoop);
    auto wl = makeWorkload("queue", crashParams())(sys, 0);
    wl->setup();
    for (int i = 0; i < 25; ++i)
        wl->runTransaction(i);
    sys.crash();
    sys.recover(2);
    sys.crash();
    sys.recover(4);
    EXPECT_TRUE(wl->verify());
}

} // namespace
} // namespace hoopnvm
