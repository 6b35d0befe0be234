/**
 * @file
 * Media-fault soak engine: long deterministic runs under escalating
 * fault rates.
 *
 * Where the crash explorer asks "does one surgically placed crash
 * lose committed data?", the soak engine asks the endurance question:
 * as the media accumulates permanent damage, does the system keep its
 * two promises —
 *
 *  1. integrity: committed data is never lost or corrupted (the
 *     program-verify contract keeps new data off bad cells, retirement
 *     removes them from circulation, recovery skips retired units), and
 *  2. graceful degradation: capacity exhaustion surfaces as structured
 *     TxRejected admissions/unwinds, never as an abort or a wedge.
 *
 * One soak cell runs warmup, then a sequence of phases. Each phase
 * installs fresh seeded faults over capacity the scheme reports as
 * free (plus transient read disturbs over the home region) at an
 * escalating per-word probability, runs a transaction window with
 * TxRejected handled by CheckRig::resolveReject() (admission rejects
 * skip the transaction; a mid-transaction unwind crashes, recovers,
 * passes the committed-state oracle and continues on the survivor
 * state), and checks both oracles. The run ends with a final crash +
 * recovery on the accumulated damage.
 *
 * Everything is seeded; a violating spec serializes to JSON and
 * shrinks to a minimal reproducer (`hoop_soak --replay`).
 */

#ifndef HOOPNVM_CHECK_SOAK_HH
#define HOOPNVM_CHECK_SOAK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/rig.hh"

namespace hoopnvm
{

/** One deterministic soak cell (scheme x workload x fault ramp). */
struct SoakSpec
{
    Scheme scheme = Scheme::Hoop;
    std::string workload = "vector";
    std::uint64_t seed = 42;
    unsigned numCores = 2;
    std::uint64_t warmupTx = 10;

    /** Escalation steps; phase p installs faults at faultProb *
     *  escalation^p over then-free capacity. */
    unsigned phases = 4;

    /** Transactions per core per phase. */
    std::uint64_t txPerPhase = 60;

    /** Per-word fault probability of the first phase. */
    double faultProb = 0.01;

    /** Per-phase probability multiplier. */
    double escalation = 2.0;

    unsigned recoverThreads = 2;

    std::string toJson() const;

    /**
     * Parse @p text (as produced by toJson()).
     * @return false with @p err set on malformed input.
     */
    static bool fromJson(const std::string &text, SoakSpec *out,
                        std::string *err);
};

/** Per-phase observability of one soak run. */
struct SoakPhaseStats
{
    double faultProb = 0.0;

    /** Admission-time rejects (txBegin refused; transaction skipped). */
    std::uint64_t rejectedAdmission = 0;

    /** Mid-transaction unwinds (crash + recovery discarded the tx). */
    std::uint64_t rejectedMidTx = 0;

    std::uint64_t recoveries = 0;
};

/** Outcome of one soak cell. */
struct SoakResult
{
    bool violated = false;

    /** Human-readable description of the first violation. */
    std::string detail;

    std::uint64_t rejectedAdmission = 0;
    std::uint64_t rejectedMidTx = 0;
    std::uint64_t recoveries = 0;

    // End-of-run fault-tolerance gauges.
    std::uint64_t retiredUnits = 0;
    std::uint64_t correctedWords = 0;
    std::uint64_t readRetries = 0;
    std::uint64_t uncorrectableReads = 0;
    double degradedFraction = 0.0;

    std::vector<SoakPhaseStats> phases;
};

/** Execute @p spec deterministically. */
SoakResult runSoak(const SoakSpec &spec, const Progress &progress = {});

/**
 * Greedily shrink @p failing toward a minimal still-violating spec:
 * fewer phases, smaller windows, less warmup.
 */
SoakSpec shrinkSoak(const SoakSpec &failing,
                    std::string *detail = nullptr,
                    const Progress &progress = {});

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_SOAK_HH
