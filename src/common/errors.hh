/**
 * @file
 * Structured runtime errors for fault/exhaustion paths.
 *
 * A production persistent-memory system must degrade, not die: when
 * capacity is exhausted by retired bad blocks or pinned open
 * transactions, the controller rejects the offending transaction with a
 * typed error that callers (the soak harness, a real admission layer)
 * can observe and count. HOOP_FATAL remains reserved for genuine
 * invariant violations and setup/configuration errors — see the
 * fatal-vs-structured split documented in common/logging.hh.
 *
 * TxRejected unwinds through the same cooperative call stack as
 * SimCrash (sim/crash_hook.hh): workloads propagate it out of
 * runTransaction() and the driver decides what a rejection means
 * (graceful stop, backoff, test failure). Rejections at txBegin are
 * clean (no transactional state exists yet); rejections mid-transaction
 * abort that transaction — its out-of-place/logged writes carry no
 * commit record, so a subsequent crash+recovery discards them exactly
 * like any other uncommitted transaction.
 */

#ifndef HOOPNVM_COMMON_ERRORS_HH
#define HOOPNVM_COMMON_ERRORS_HH

namespace hoopnvm
{

/** Why a transaction was rejected instead of served. */
enum class RejectCause
{
    /** OOP region wedged: every block pinned by open transactions. */
    OopExhausted,

    /** Baseline log ring full and its reclaim step freed nothing. */
    LogExhausted,

    /** Retired capacity crossed the configured degradation threshold. */
    CapacityDegraded,
};

/** Stable lowercase token for @p c (soak JSON, logs). */
inline const char *
rejectCauseName(RejectCause c)
{
    switch (c) {
      case RejectCause::OopExhausted:
        return "oop_exhausted";
      case RejectCause::LogExhausted:
        return "log_exhausted";
      case RejectCause::CapacityDegraded:
        return "capacity_degraded";
    }
    return "?";
}

/** Thrown on a structured (non-fatal) transaction rejection. */
struct TxRejected
{
    RejectCause cause = RejectCause::CapacityDegraded;

    /** Static human-readable detail (no ownership). */
    const char *detail = "";
};

/**
 * Final, client-visible disposition of one fleet request. Every
 * request ends in exactly one of these — the serving layer converts
 * TxRejected (and shard unavailability) into retries, and retries
 * exhaust into one of the structured failure outcomes below; nothing
 * a client submits may end in HOOP_FATAL.
 */
enum class ClientOutcome
{
    /** Committed and acknowledged (possibly after retries). */
    Acked,

    /** Retry budget exhausted on structured rejections. */
    Rejected,

    /** Per-request deadline expired before an ack (TxTimeout). */
    TxTimeout,

    /** Refused up front by admission control (load shedding). */
    Shed,
};

/** Stable lowercase token for @p o (fleet JSON, logs). */
inline const char *
clientOutcomeName(ClientOutcome o)
{
    switch (o) {
      case ClientOutcome::Acked:
        return "acked";
      case ClientOutcome::Rejected:
        return "rejected";
      case ClientOutcome::TxTimeout:
        return "tx_timeout";
      case ClientOutcome::Shed:
        return "shed";
    }
    return "?";
}

} // namespace hoopnvm

#endif // HOOPNVM_COMMON_ERRORS_HH
