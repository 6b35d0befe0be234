/**
 * @file
 * Replayable crash schedules for the crash-consistency exploration
 * engine.
 *
 * A CrashSchedule pins down one deterministic experiment: scheme,
 * workload, seeds, transaction counts, fault regime and a sequence of
 * crash steps (each an armed crash-point boundary, optionally followed
 * by a second crash *during* the recovery it triggers). Schedules
 * serialize to JSON so a violation found by the explorer can be
 * written to disk and re-executed bit-for-bit with
 * `hoop_crashcheck --replay <file>`.
 */

#ifndef HOOPNVM_CHECK_CRASH_SCHEDULE_HH
#define HOOPNVM_CHECK_CRASH_SCHEDULE_HH

#include <string>
#include <vector>

#include "sim/crash_hook.hh"
#include "sim/system_config.hh"

namespace hoopnvm
{

/**
 * One crash episode: arm @ref kind with @ref countdown, run the
 * transaction stream until the crash fires, then recover. A non-zero
 * @ref recoveryCountdown additionally arms a RecoveryStep crash inside
 * that recovery (crash-during-recovery), after which recovery is
 * re-entered on the twice-crashed image.
 */
struct CrashStep
{
    CrashPointKind kind = CrashPointKind::Store;
    std::uint64_t countdown = 1;
    std::uint64_t recoveryCountdown = 0;
};

/** A complete, deterministic crash experiment. */
struct CrashSchedule
{
    Scheme scheme = Scheme::Hoop;
    std::string workload = "vector";
    std::uint64_t seed = 42;
    unsigned numCores = 2;
    std::uint64_t warmupTx = 10;
    std::uint64_t runTx = 40;
    unsigned recoverThreads = 2;
    bool tornWrites = false;

    /**
     * Runtime media-fault regime: enables the fault-tolerance config
     * (ECC, bounded retry, scrubbing, retirement) and schedules seeded
     * wear-out faults over then-free capacity plus transient read
     * disturbs over the home region after warmup. The regime
     * guarantees no data loss (program-verify keeps data off bad
     * cells), so the oracles stay strict.
     */
    double runtimeFaultProb = 0.0;

    bool breakCommitFence = false;

    /** Arm the persistency-ordering analyzer for the whole run. */
    bool ordering = false;

    std::vector<CrashStep> steps;

    std::string toJson() const;

    /**
     * Parse @p text (as produced by toJson()).
     * @return false with @p err set on malformed input.
     */
    static bool fromJson(const std::string &text, CrashSchedule *out,
                         std::string *err);
};

/** Inverse of crashPointKindToken(). @return false on unknown token. */
bool crashPointKindFromToken(const std::string &token,
                             CrashPointKind *out);

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_CRASH_SCHEDULE_HH
