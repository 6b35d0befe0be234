/**
 * @file
 * Crash-point injection hook shared by the whole simulated machine.
 *
 * Crash-consistency bugs hide at *boundaries*: between a store and its
 * eviction, inside a commit-record write, between two GC migration
 * writes, in the middle of recovery itself. The CrashHook names those
 * boundaries as classes and lets a test (or the src/check explorer)
 * arm a countdown on any class: the n-th subsequent event of that class
 * throws SimCrash, unwinding to the caller exactly as a power failure
 * would — volatile state still live, in-flight NVM writes unresolved
 * until System::crash() runs the fault model.
 *
 * Events are counted even when unarmed, so a profiling run can measure
 * how many crash points of each class one schedule exposes.
 *
 * A tapped hook (setTap) calls its tap where it would throw and lets
 * execution continue: the crash explorer runs one window and forks
 * each crash point it reaches (System::adoptImage) instead of
 * re-running the window once per point.
 */

#ifndef HOOPNVM_SIM_CRASH_HOOK_HH
#define HOOPNVM_SIM_CRASH_HOOK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <utility>

namespace hoopnvm
{

/** The boundary classes at which a crash can be injected. */
enum class CrashPointKind : unsigned
{
    Store = 0,    ///< Before a transactional word store reaches L1.
    Eviction,     ///< Before an LLC dirty victim is handed off.
    CommitRecord, ///< Inside txEnd, commit record still in flight.
    GcStep,       ///< Between GC / checkpoint / truncation steps.
    RecoveryStep, ///< Between recovery replay steps (serial phases).
};

inline constexpr unsigned kNumCrashPointKinds = 5;

/** Stable lowercase token for @p k (schedule JSON, CLI flags). */
inline const char *
crashPointKindToken(CrashPointKind k)
{
    switch (k) {
      case CrashPointKind::Store:
        return "store";
      case CrashPointKind::Eviction:
        return "eviction";
      case CrashPointKind::CommitRecord:
        return "commit_record";
      case CrashPointKind::GcStep:
        return "gc_step";
      case CrashPointKind::RecoveryStep:
        return "recovery_step";
    }
    return "?";
}

/** Thrown when an armed crash point fires mid-execution. */
struct SimCrash
{
    CrashPointKind kind = CrashPointKind::Store;
};

/** Per-class crash-point event counters and armed countdowns. */
class CrashHook
{
  public:
    /** Receives the crash points a tapped hook reaches. */
    using Tap = std::function<void(CrashPointKind)>;

    /**
     * Record one event of class @p k. When an armed countdown on @p k
     * reaches zero, throws SimCrash, or calls the tap if one is set.
     * Hot path: two array accesses.
     */
    void
    step(CrashPointKind k)
    {
        const auto i = static_cast<unsigned>(k);
        ++counts_[i];
        if (countdown_[i] > 0 && --countdown_[i] == 0)
            fire(k);
    }

    /**
     * Call @p tap at each armed crash point instead of throwing
     * (an empty tap restores throwing). The tap runs before the
     * event's operation, with the machine as a crash there would find
     * it; it may re-arm the class for its next point.
     */
    void setTap(Tap tap) { tap_ = std::move(tap); }

    /**
     * Arm class @p k to crash on its @p n-th subsequent event
     * (1 = the very next one; 0 disarms).
     */
    void
    arm(CrashPointKind k, std::uint64_t n)
    {
        countdown_[static_cast<unsigned>(k)] = n;
    }

    void disarm(CrashPointKind k) { arm(k, 0); }

    /**
     * Called on power failure: volatile-execution countdowns die with
     * the machine, but a RecoveryStep countdown must survive so a test
     * can arm it *before* crashing and have it fire inside the very
     * recovery that follows.
     */
    void
    disarmVolatile()
    {
        for (unsigned i = 0; i < kNumCrashPointKinds; ++i) {
            if (i != static_cast<unsigned>(CrashPointKind::RecoveryStep))
                countdown_[i] = 0;
        }
    }

    bool
    armed(CrashPointKind k) const
    {
        return countdown_[static_cast<unsigned>(k)] > 0;
    }

    /** Events of class @p k seen since construction / resetCounts(). */
    std::uint64_t
    count(CrashPointKind k) const
    {
        return counts_[static_cast<unsigned>(k)];
    }

    std::array<std::uint64_t, kNumCrashPointKinds>
    counts() const
    {
        return counts_;
    }

    void resetCounts() { counts_.fill(0); }

  private:
    void
    fire(CrashPointKind k)
    {
        if (!tap_)
            throw SimCrash{k};
        tap_(k);
    }

    std::array<std::uint64_t, kNumCrashPointKinds> counts_{};
    std::array<std::uint64_t, kNumCrashPointKinds> countdown_{};
    Tap tap_;
};

} // namespace hoopnvm

#endif // HOOPNVM_SIM_CRASH_HOOK_HH
