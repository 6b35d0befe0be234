/**
 * @file
 * Error reporting helpers, following the gem5 panic()/fatal() convention.
 *
 * panic() is for conditions that indicate a bug in the simulator itself;
 * fatal() is for conditions caused by invalid user configuration. Both
 * terminate the process; panic() aborts so a core dump is produced.
 *
 * Fatal-vs-structured split (runtime fault-tolerance audit)
 * ---------------------------------------------------------
 * A runtime-reachable exhaustion or media-fault path must never
 * terminate the process: a production controller degrades to a typed
 * rejection the caller can observe (common/errors.hh, TxRejected).
 * HOOP_FATAL is reserved for conditions a correctly-sized, correctly-
 * invoked simulation cannot reach at runtime. The audited sites:
 *
 *  Converted to `throw TxRejected{...}` (runtime exhaustion, reachable
 *  under heavy traffic or retired-capacity loss):
 *   - hoop/hoop_controller.cc  OOP region wedged by open transactions
 *     (RejectCause::OopExhausted), and admission rejection once retired
 *     capacity crosses ft.rejectCapacityFraction (CapacityDegraded).
 *   - baselines/log_controller.cc, osp_controller.cc  log ring still
 *     full after a reclaim step, or retired past the admission
 *     threshold (RejectCause::LogExhausted / CapacityDegraded).
 *
 *  Kept HOOP_FATAL (setup/configuration errors, not fault paths):
 *   - txn/sim_allocator.cc      arena sized too small for the workload.
 *   - workloads/registry.cc     unknown workload name (CLI input).
 *   - workloads/hashmap_wl.cc   table sized too small for the key space.
 *   - bench/bench_common.cc     bench::runCell, the one place a
 *     failed bench verification aborts (a test failure, not service).
 */

#ifndef HOOPNVM_COMMON_LOGGING_HH
#define HOOPNVM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>

namespace hoopnvm
{

/** Internal helper: print a tagged message with source location. */
template <typename... Args>
[[noreturn]] inline void
reportAndDie(bool do_abort, const char *tag, const char *file, int line,
             const char *fmt, Args... args)
{
    std::fprintf(stderr, "%s: %s:%d: ", tag, file, line);
    if constexpr (sizeof...(Args) == 0) {
        std::fputs(fmt, stderr);
    } else {
        std::fprintf(stderr, fmt, args...);
    }
    std::fputc('\n', stderr);
    if (do_abort)
        std::abort();
    std::exit(1);
}

} // namespace hoopnvm

/** Unrecoverable simulator bug: print and abort. */
#define HOOP_PANIC(...) \
    ::hoopnvm::reportAndDie(true, "panic", __FILE__, __LINE__, __VA_ARGS__)

/** Unrecoverable user/configuration error: print and exit(1). */
#define HOOP_FATAL(...) \
    ::hoopnvm::reportAndDie(false, "fatal", __FILE__, __LINE__, __VA_ARGS__)

/** Internal consistency check that is always compiled in. */
#define HOOP_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::hoopnvm::reportAndDie(true, "assert(" #cond ")",          \
                                    __FILE__, __LINE__, __VA_ARGS__);   \
        }                                                               \
    } while (0)

#endif // HOOPNVM_COMMON_LOGGING_HH
