/**
 * @file
 * Targeted thread-stress regressions for the components that share
 * mutable state across host threads: the process-wide trace sink
 * (concurrent TraceBuffer::flush), the watchdog's beat/wait handshake,
 * and the CellRunner worker pool. The assertions are deliberately
 * light — the real oracle is ThreadSanitizer (HOOP_SANITIZE=thread
 * build, see EXPERIMENTS.md), under which any data race in these
 * paths fails the test run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "check/watchdog.hh"
#include "common/rng.hh"
#include "stats/trace.hh"

namespace hoopnvm
{
namespace
{

TEST(ThreadStress, ConcurrentTraceFlush)
{
    const std::string path = "thread_stress_trace.json";
    Trace::setPath(path);
    ASSERT_TRUE(Trace::enabled());

    constexpr unsigned kThreads = 8;
    constexpr unsigned kEvents = 200;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            // Each worker owns its buffer (the supported pattern);
            // only flush() touches the shared sink.
            TraceBuffer buf("stress/worker-" + std::to_string(t));
            for (unsigned i = 0; i < kEvents; ++i) {
                const Tick at = nsToTicks(10 * (i + 1));
                buf.span("tx", "tx", t, at, at + nsToTicks(5));
                buf.counter("events", at, i);
                if (i % 32 == 0)
                    buf.flush();
            }
            buf.flush();
        });
    }
    for (std::thread &w : workers)
        w.join();

    EXPECT_TRUE(Trace::write());
    Trace::clearForTest();
    Trace::setPath("");
    std::remove(path.c_str());
}

TEST(ThreadStress, WatchdogBeatsUnderContention)
{
    // Many producers beating one watchdog while its waiter thread
    // arms and re-arms deadlines. A generous budget keeps the
    // watchdog from firing; the test is the race-free handshake.
    Watchdog wd(60 * 1000);
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&wd, t] {
            for (unsigned i = 0; i < 500; ++i)
                wd.beat("stress-" + std::to_string(t));
        });
    }
    for (std::thread &w : workers)
        w.join();
    wd.beat("done");
}

TEST(ThreadStress, CellRunnerPoolMatchesSerial)
{
    // The same cell set must produce bit-identical per-cell results
    // from the inline runner and from a contended worker pool. Each
    // cell is self-contained (own seeded RNG), so any cross-talk is a
    // harness bug — and a TSan hit.
    constexpr std::size_t kCells = 24;
    auto runAll = [](unsigned jobs) {
        std::vector<std::uint64_t> results(kCells, 0);
        bench::CellRunner runner(jobs);
        for (std::size_t i = 0; i < kCells; ++i) {
            runner.add("cell-" + std::to_string(i),
                       [&results, i](RunMetrics &) {
                Rng rng(0x9e3779b9ull + i);
                std::uint64_t acc = 0;
                for (unsigned k = 0; k < 10000; ++k)
                    acc ^= rng.next() * (k | 1);
                results[i] = acc;
            });
        }
        runner.run();
        return results;
    };

    const std::vector<std::uint64_t> serial = runAll(1);
    const std::vector<std::uint64_t> pooled = runAll(4);
    EXPECT_EQ(serial, pooled);
}

} // namespace
} // namespace hoopnvm
