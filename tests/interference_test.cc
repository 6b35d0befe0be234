/**
 * @file
 * Tests for the mixed-role interference suite.
 *
 * Covers the role-assignment contract (workloads/interference_wl.hh)
 * and the determinism acceptance property — bit-identical RunMetrics,
 * including the per-role block and the NVM channel gauges, whether
 * the cells run `-j1` or across a CellRunner pool.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "workloads/interference_wl.hh"

namespace hoopnvm
{
namespace
{

using bench::CellRunner;

TEST(InterferenceRoles, NamesMatchTheStatsContract)
{
    // system.cc's metrics() scans histograms named
    // role_<name>_ticks for exactly these strings; a rename on either
    // side silently drops a role from the JSON.
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::LogAppend),
                 "log_append");
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::PointRead),
                 "point_read");
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::SeqScan),
                 "seq_scan");
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::GcPressure),
                 "gc_pressure");
}

TEST(InterferenceRoles, MixZeroIsAllWriters)
{
    for (CoreId c = 0; c < 8; ++c) {
        const InterferenceRole r = interferenceRoleForCore(c, 8, 0.0);
        EXPECT_EQ(r, (c % 2 == 0) ? InterferenceRole::LogAppend
                                  : InterferenceRole::GcPressure)
            << "core " << c;
    }
}

TEST(InterferenceRoles, MixOneIsAllReaders)
{
    for (CoreId c = 0; c < 8; ++c) {
        const InterferenceRole r = interferenceRoleForCore(c, 8, 1.0);
        EXPECT_EQ(r, (c % 2 == 0) ? InterferenceRole::PointRead
                                  : InterferenceRole::SeqScan)
            << "core " << c;
    }
}

TEST(InterferenceRoles, HalfMixSplitsEightCoresEvenly)
{
    // Reader cores come first; each half alternates its two roles so
    // every role appears even on small machines.
    const InterferenceRole expect[8] = {
        InterferenceRole::PointRead, InterferenceRole::SeqScan,
        InterferenceRole::PointRead, InterferenceRole::SeqScan,
        InterferenceRole::LogAppend, InterferenceRole::GcPressure,
        InterferenceRole::LogAppend, InterferenceRole::GcPressure};
    for (CoreId c = 0; c < 8; ++c)
        EXPECT_EQ(interferenceRoleForCore(c, 8, 0.5), expect[c])
            << "core " << c;
}

TEST(InterferenceRoles, SingleCoreFallsBackToWriter)
{
    // lround(0.4 * 1) = 0 readers: the lone core must still generate
    // persistence traffic, not leave the channel idle.
    EXPECT_EQ(interferenceRoleForCore(0, 1, 0.4),
              InterferenceRole::LogAppend);
    EXPECT_EQ(interferenceRoleForCore(0, 1, 1.0),
              InterferenceRole::PointRead);
}

// ---------------------------------------------------------------------
// Determinism: the acceptance property of the whole suite.
// ---------------------------------------------------------------------

struct SweepPoint
{
    Scheme scheme;
    double saturation;
    double readMix;
};

std::vector<SweepPoint>
sweep()
{
    // hoop + one log-based baseline x a saturation and a mix edge —
    // small enough for test runtime, wide enough to hit all roles and
    // the pacing path (saturation < 1).
    return {{Scheme::Hoop, 1.0, 0.5},
            {Scheme::Hoop, 0.5, 0.75},
            {Scheme::OptRedo, 1.0, 0.5},
            {Scheme::OptRedo, 0.5, 0.25}};
}

std::vector<RunMetrics>
runSweep(unsigned jobs)
{
    const SystemConfig cfg = bench::paperConfig();
    WorkloadParams params = bench::paperParams(64);
    params.scale = 256;

    const auto pts = sweep();
    CellRunner runner(jobs);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        WorkloadParams p = params;
        p.interferenceSaturation = pts[i].saturation;
        p.interferenceReadMix = pts[i].readMix;
        runner.add("cell" + std::to_string(i), pts[i].scheme,
                   "interference", p, cfg, /*tx_per_core=*/20);
    }
    runner.run();
    std::vector<RunMetrics> out;
    for (std::size_t i = 0; i < runner.cells(); ++i)
        out.push_back(runner.metrics(i));
    return out;
}

void
expectIdenticalSummary(const LatencySummary &a, const LatencySummary &b,
                       const std::string &which)
{
    SCOPED_TRACE(which);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.p50Ns, b.p50Ns);
    EXPECT_EQ(a.p95Ns, b.p95Ns);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
    EXPECT_EQ(a.p999Ns, b.p999Ns);
    EXPECT_EQ(a.maxNs, b.maxNs);
    EXPECT_EQ(a.meanNs, b.meanNs);
    EXPECT_EQ(a.p50Saturated, b.p50Saturated);
    EXPECT_EQ(a.p95Saturated, b.p95Saturated);
    EXPECT_EQ(a.p99Saturated, b.p99Saturated);
    EXPECT_EQ(a.p999Saturated, b.p999Saturated);
}

void
expectIdenticalMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_EQ(a.txPerSecond, b.txPerSecond);
    EXPECT_EQ(a.avgCriticalPathNs, b.avgCriticalPathNs);
    EXPECT_EQ(a.nvmBytesWritten, b.nvmBytesWritten);
    EXPECT_EQ(a.nvmBytesRead, b.nvmBytesRead);
    EXPECT_EQ(a.energyPj, b.energyPj);
    expectIdenticalSummary(a.critPath, b.critPath, "critPath");
    // The new channel gauges must be as deterministic as the rest.
    EXPECT_EQ(a.channelBusyTicks, b.channelBusyTicks);
    EXPECT_EQ(a.channelWaitTicks, b.channelWaitTicks);
    EXPECT_EQ(a.drainFences, b.drainFences);
    EXPECT_EQ(a.channelUtilization, b.channelUtilization);
    // And so must the per-role block, order included.
    ASSERT_EQ(a.roles.size(), b.roles.size());
    for (std::size_t i = 0; i < a.roles.size(); ++i) {
        EXPECT_EQ(a.roles[i].name, b.roles[i].name);
        EXPECT_EQ(a.roles[i].transactions, b.roles[i].transactions);
        EXPECT_EQ(a.roles[i].txPerSecond, b.roles[i].txPerSecond);
        expectIdenticalSummary(a.roles[i].latency, b.roles[i].latency,
                               "role " + a.roles[i].name);
    }
}

TEST(Interference, ParallelMatchesSerialExactly)
{
    const std::vector<RunMetrics> serial = runSweep(1);
    const std::vector<RunMetrics> parallel = runSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdenticalMetrics(serial[i], parallel[i]);
    }
}

TEST(Interference, RolesBlockCoversEveryCoreOnce)
{
    const std::vector<RunMetrics> cells = runSweep(1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const RunMetrics &m = cells[i];
        // A 50/50 or 25/75 mix on 8 cores populates all four roles.
        ASSERT_EQ(m.roles.size(), 4u);
        std::uint64_t sum = 0;
        for (const RoleMetrics &r : m.roles) {
            EXPECT_GT(r.transactions, 0u) << r.name;
            EXPECT_GT(r.latency.count, 0u) << r.name;
            EXPECT_GT(r.txPerSecond, 0.0) << r.name;
            sum += r.transactions;
        }
        // Every committed transaction lands in exactly one role.
        EXPECT_EQ(sum, m.transactions);
    }
}

TEST(Interference, ChannelGaugesArePopulated)
{
    const std::vector<RunMetrics> cells = runSweep(1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const RunMetrics &m = cells[i];
        EXPECT_GT(m.channelBusyTicks, 0u);
        EXPECT_GT(m.channelUtilization, 0.0);
        EXPECT_LE(m.channelUtilization, 1.0);
    }
}

} // namespace
} // namespace hoopnvm
