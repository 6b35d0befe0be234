/**
 * @file
 * Opt-in host-side wall-time profiler for the bench harness.
 *
 * When a bench binary is started with `--profile`, coarse-grained
 * scoped timers at the engine's phase boundaries (transaction
 * execution, controller maintenance, GC runs, recovery replay, the
 * end-of-run drain and workload verification) accumulate wall
 * nanoseconds into process-wide atomic counters, and the bench
 * driver (bench::Bench::write) emits the breakdown into the bench JSON
 * plus a stderr summary.
 *
 * Disabled (the default) the timers cost one predictable branch per
 * phase entry — no clock reads — so bench timing without the flag is
 * unaffected. Counters are process-global: with -jN cell parallelism
 * the breakdown aggregates over all cells, which is what the
 * per-component share is read for. "gc" counts every
 * GarbageCollector::run, including runs triggered inside a
 * maintenance or execute span, so components overlap and do not sum
 * to the process wall time; each is meaningful as a share of it.
 */

#ifndef HOOPNVM_COMMON_HOST_PROFILER_HH
#define HOOPNVM_COMMON_HOST_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>

namespace hoopnvm
{

class HostProfiler
{
  public:
    enum Component
    {
        kExecute = 0,   ///< Workload transaction bodies (cache + ctrl)
        kMaintenance,   ///< PersistenceController::maintenance polls
        kGc,            ///< GarbageCollector::run (periodic + on-demand)
        kRecovery,      ///< Post-crash recovery replay
        kDrain,         ///< End-of-measurement finalize/drain
        kVerify,        ///< Workload result verification
        kNumComponents
    };

    static void enable() { enabled_ = true; }
    static bool enabled() { return enabled_; }

    static const char *name(int c);

    static void
    add(Component c, std::uint64_t ns)
    {
        ns_[c].fetch_add(ns, std::memory_order_relaxed);
    }

    static std::uint64_t
    totalNs(int c)
    {
        return ns_[c].load(std::memory_order_relaxed);
    }

  private:
    static bool enabled_;
    static std::atomic<std::uint64_t> ns_[kNumComponents];
};

/** RAII span: charges its lifetime to one profiler component. */
class HostTimer
{
  public:
    explicit HostTimer(HostProfiler::Component c)
        : c_(c), active_(HostProfiler::enabled())
    {
        if (active_)
            // lint: nondet-api-ok (opt-in host profiling; ticks never reach the simulation)
            t0_ = std::chrono::steady_clock::now();
    }

    ~HostTimer()
    {
        if (active_) {
            // lint: nondet-api-ok (opt-in host profiling; ticks never reach the simulation)
            const auto dt = std::chrono::steady_clock::now() - t0_;
            HostProfiler::add(
                c_, static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(dt)
                            .count()));
        }
    }

    HostTimer(const HostTimer &) = delete;
    HostTimer &operator=(const HostTimer &) = delete;

  private:
    HostProfiler::Component c_;
    bool active_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace hoopnvm

#endif // HOOPNVM_COMMON_HOST_PROFILER_HH
