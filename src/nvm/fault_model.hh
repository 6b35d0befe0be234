/**
 * @file
 * Deterministic, seeded NVM fault injection.
 *
 * The clean-crash model (every byte that reached the device survives,
 * every byte that did not vanishes) is too kind to recovery code. Real
 * NVM fails in two additional ways this model injects:
 *
 *  1. **Torn writes.** NVM persists multi-word stores in 8-byte units
 *     with no atomicity across them. A power failure while a write is
 *     in flight persists an arbitrary subset of its words. The model
 *     tracks every timed write still in flight (completion tick after
 *     the crash tick) together with the pre-image of its target range;
 *     on crash, a seeded coin per 8-byte word decides whether that word
 *     keeps the new value or reverts to the pre-image.
 *
 *  2. **Media faults.** Worn or disturbed cells corrupt data at rest.
 *     Faults are *scheduled* over address ranges and applied on the
 *     read path: a seeded hash of each word address decides whether the
 *     word is faulty and which bits are affected, so a faulty cell
 *     reads back the same wrong value every time — like real stuck-at
 *     or retention failures, and reproducible run-to-run. When ranges
 *     overlap, the first scheduled range covering a faulty word wins
 *     (its kind and bit budget apply; later ranges are ignored for
 *     that word), so precedence is deterministic and order-declared.
 *
 * On top of the raw injector sits the *media-tolerance* model used by
 * the runtime fault-tolerance subsystem (all knobs default off):
 *
 *  - **ECC.** A k-bit-correcting code per 8-byte word: faulty words
 *    with at most k affected bits are delivered clean and counted as
 *    corrected (the device charges a latency surcharge per correction).
 *  - **Transient faults.** BitFlip-kind faults can be declared
 *    transient (read disturb): a seeded per-word attempt count decides
 *    after how many re-reads the word reads clean, enabling a bounded,
 *    deterministic read-retry policy. Stuck-at faults never clear.
 *  - **Severity classification.** classifySeverity()/
 *    uncorrectableInRange() expose the pure-function verdict so write
 *    paths can program-verify a target slot *before* committing data
 *    to it, and recovery can distinguish a never-written bad slot from
 *    a torn write.
 *
 * Everything is a pure function of the seed, the write sequence and the
 * addresses involved: two simulations with the same seed and the same
 * access stream observe byte-identical faults (fault_model_test.cc).
 * Injection itself charges no simulated time or energy.
 */

#ifndef HOOPNVM_NVM_FAULT_MODEL_HH
#define HOOPNVM_NVM_FAULT_MODEL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "nvm/write_observer.hh"

namespace hoopnvm
{

/** How a scheduled media fault corrupts an affected word. */
enum class MediaFaultKind : std::uint8_t
{
    BitFlip = 0,     ///< XOR the selected bits on every read.
    StuckAtZero = 1, ///< Selected bits always read as 0.
    StuckAtOne = 2,  ///< Selected bits always read as 1.
};

/** One scheduled media-fault region. */
struct MediaFaultRange
{
    Addr begin = 0; ///< Inclusive start (byte address).
    Addr end = 0;   ///< Exclusive end.
    MediaFaultKind kind = MediaFaultKind::BitFlip;

    /** Per-word probability that the word is faulty (seeded hash). */
    double wordProbability = 0.0;

    /**
     * Upper bound on affected bits per faulty word (seeded, in
     * [1, maxBitsPerWord]). 1 reproduces the classic single-bit model;
     * larger values exercise the ECC correctable/uncorrectable split.
     */
    unsigned maxBitsPerWord = 1;
};

/** Severity of the media fault affecting one 8-byte word. */
enum class FaultSeverity : std::uint8_t
{
    Clean = 0,     ///< No scheduled fault hits the word.
    Correctable,   ///< Affected bits within the ECC budget.
    Transient,     ///< BitFlip beyond ECC, but clears under retry.
    Uncorrectable, ///< Permanent (stuck-at) beyond the ECC budget.
};

/** Per-read fault report filled by the ECC/retry-aware read path. */
struct ReadFaultInfo
{
    /** Words delivered clean by in-line ECC correction. */
    std::uint32_t correctedWords = 0;

    /** Transient words that read corrupt at this attempt. */
    std::uint32_t transientWords = 0;

    /** Words delivered corrupt beyond ECC and retry. */
    std::uint32_t uncorrectableWords = 0;

    /** First uncorrectable word address (kInvalidAddr when none). */
    Addr firstUncorrectable = kInvalidAddr;

    /** Retry attempts the device spent on this read. */
    std::uint32_t retries = 0;

    bool uncorrectable() const { return uncorrectableWords > 0; }
};

/** Seeded torn-write and media-fault injector for one NvmDevice. */
class FaultModel
{
  public:
    explicit FaultModel(std::uint64_t seed = 0) : seed_(seed) {}

    // ---- Configuration ----

    void setSeed(std::uint64_t seed) { seed_ = seed; }
    std::uint64_t seed() const { return seed_; }

    /** Enable torn-write tracking (off by default: zero overhead). */
    void setTornWrites(bool on);
    bool tornWritesEnabled() const { return tornWrites_; }

    /** Schedule media faults over [begin, end). */
    void addMediaFault(Addr begin, Addr end, MediaFaultKind kind,
                       double word_probability,
                       unsigned max_bits_per_word = 1);

    /** True when any media-fault range is scheduled. */
    bool hasMediaFaults() const { return !ranges_.empty(); }

    /**
     * Back to a pristine, fault-free injector: clears the in-flight
     * write set, every scheduled media-fault range, and all tallies.
     * Wiring (observer attachment, ECC/retry policy) survives.
     */
    void reset();

    /**
     * Zero the tallies only; in-flight writes and scheduled faults are
     * untouched. Used when a measurement phase begins mid-run.
     */
    void
    resetCounters()
    {
        writesTorn_ = 0;
        wordsTorn_ = 0;
        wordsCorrupted_ = 0;
        wordsEccCorrected_ = 0;
        wordsTransientCleared_ = 0;
        wordsUncorrectable_ = 0;
    }

    /**
     * Attach an observer of durability fences (nullptr detaches). The
     * settle notification fires even with torn writes disabled, so the
     * ordering analyzer sees every fence in clean runs too. Survives
     * reset(): attachment is wiring, not fault state.
     */
    void setObserver(NvmWriteObserver *obs) { observer_ = obs; }

    // ---- Media-tolerance policy (wiring; survives reset()) ----

    /** Model a @p correct_bits-correcting per-word ECC (0 disables). */
    void setEcc(unsigned correct_bits) { eccBits_ = correct_bits; }
    unsigned eccBits() const { return eccBits_; }

    /**
     * Declare BitFlip-kind faults transient: a seeded per-word count
     * in [1, @p max_attempts] decides after how many re-reads the word
     * reads clean (0 = BitFlips are permanent, the default).
     */
    void
    setTransientFaults(unsigned max_attempts)
    {
        transientAttempts_ = max_attempts;
    }
    unsigned transientAttempts() const { return transientAttempts_; }

    // ---- Device hooks ----

    /**
     * Record a timed write of @p len bytes at @p addr completing at
     * @p completion. Torn writes must be on. Returns the record's
     * @p len-byte preimage buffer, which the caller fills with the
     * range's bytes before it writes them.
     */
    std::uint8_t *noteWrite(Addr addr, std::size_t len, Tick completion,
                            Tick now);

    /**
     * Crash at @p tick: tear every tracked write whose completion is
     * after @p tick, reverting a seeded subset of its 8-byte words via
     * @p poke (the device's untimed write-back). Clears the in-flight
     * set.
     */
    template <typename PokeFn>
    void
    applyCrash(Tick tick, PokeFn &&poke)
    {
        for (const PendingWrite &w : pending_) {
            if (w.completion <= tick)
                continue;
            ++writesTorn_;
            tearOne(w, poke);
        }
        pending_.clear();
    }

    /**
     * Durability fence: declare every tracked write whose completion
     * is at or before @p tick persisted (it can no longer tear). The
     * channel completes writes in issue order, so completions in the
     * in-flight set are monotonic and the settled writes form a
     * prefix. GC uses this before recycling blocks — it waits (in
     * simulated time) for its last issued migration write to
     * complete, then settles exactly the writes that wait drained;
     * anything issued later remains tearable.
     */
    void
    settleUpTo(Tick tick)
    {
        if (observer_)
            observer_->onSettle(tick);
        while (!pending_.empty() &&
               pending_.front().completion <= tick) {
            pending_.pop_front();
        }
    }

    /**
     * ECC/retry-aware read filter: apply the scheduled media faults to
     * @p buf for read attempt @p attempt, honouring the ECC budget
     * (correctable words are delivered clean) and transient clearing
     * (a transient word reads clean from its seeded attempt onwards).
     * Fills @p rf (when non-null) with the per-severity word counts.
     * Const because the read path is const; only mutable tallies
     * change.
     */
    void filterRead(Addr addr, std::uint8_t *buf, std::size_t len,
                    unsigned attempt, ReadFaultInfo *rf) const;

    /**
     * The attempt number from which every transient word reads clean;
     * peek()-style functional reads use it to model a controller that
     * always retries to completion.
     */
    unsigned
    settledAttempt() const
    {
        return transientAttempts_;
    }

    /** Severity of the fault (if any) affecting @p word's 8 bytes. */
    FaultSeverity classifySeverity(Addr word) const;

    /**
     * True when any word in [addr, addr+len) is permanently
     * uncorrectable (stuck-at beyond the ECC budget). This is the
     * program-verify predicate: a write path must not commit data to
     * such a range, and recovery may treat it as never-written.
     */
    bool uncorrectableInRange(Addr addr, std::size_t len) const;

    /** True when any scheduled fault range overlaps [addr, addr+len). */
    bool mediaFaultyRange(Addr addr, std::size_t len) const;

    // ---- Introspection (tests, recovery stats) ----

    std::uint64_t writesTorn() const { return writesTorn_; }
    std::uint64_t wordsTorn() const { return wordsTorn_; }
    std::uint64_t wordsCorrupted() const { return wordsCorrupted_; }
    std::uint64_t wordsEccCorrected() const { return wordsEccCorrected_; }

    std::uint64_t
    wordsTransientCleared() const
    {
        return wordsTransientCleared_;
    }

    std::uint64_t
    wordsUncorrectable() const
    {
        return wordsUncorrectable_;
    }

    /** Timed writes still in flight (tracked, not yet settled). */
    std::size_t inflight() const { return pending_.size(); }

  private:
    struct PendingWrite
    {
        Addr addr;
        Tick completion;
        std::uint64_t serial; ///< Monotonic; seeds the per-word coin.
        std::vector<std::uint8_t> preimage;
    };

    /** Decoded fault affecting one word (first covering range wins). */
    struct WordFault
    {
        bool faulty = false;
        MediaFaultKind kind = MediaFaultKind::BitFlip;
        unsigned nbits = 0;
        const MediaFaultRange *range = nullptr;
    };

    /** Seeded per-word fault under first-covering-range precedence. */
    WordFault classifyWord(Addr word) const;

    /** Seeded attempt from which transient word @p word reads clean. */
    unsigned transientClearAttempt(Addr word) const;

    /**
     * Apply @p f's bits to @p word's bytes, clamped to the read window
     * and the fault range; returns the number of bits that landed.
     * A null @p buf is a dry run (count applicable bits only).
     */
    unsigned corruptWord(Addr word, const WordFault &f, Addr read_begin,
                         Addr read_end, std::uint8_t *buf) const;

    /** Seeded coin: does word @p w of write @p serial persist? */
    bool wordPersists(std::uint64_t serial, std::uint64_t w) const;

    /**
     * Revert the non-persisted 8-byte words of @p w via @p poke.
     * Partial words at unaligned edges revert atomically with the
     * word they start in.
     */
    template <typename PokeFn>
    void
    tearOne(const PendingWrite &w, PokeFn &&poke)
    {
        const Addr end = w.addr + w.preimage.size();
        Addr word = alignDown(w.addr, kWordSize);
        for (std::uint64_t i = 0; word < end; ++i, word += kWordSize) {
            if (wordPersists(w.serial, i))
                continue;
            const Addr lo = word < w.addr ? w.addr : word;
            const Addr hi = word + kWordSize < end ? word + kWordSize
                                                   : end;
            poke(lo, w.preimage.data() + (lo - w.addr), hi - lo);
            ++wordsTorn_;
        }
    }

    std::uint64_t seed_;
    bool tornWrites_ = false;
    NvmWriteObserver *observer_ = nullptr;
    std::deque<PendingWrite> pending_;
    std::uint64_t nextSerial_ = 0;
    std::vector<MediaFaultRange> ranges_;

    // Media-tolerance policy (wiring; survives reset()).
    unsigned eccBits_ = 0;
    unsigned transientAttempts_ = 0;

    std::uint64_t writesTorn_ = 0;
    std::uint64_t wordsTorn_ = 0;
    mutable std::uint64_t wordsCorrupted_ = 0;
    mutable std::uint64_t wordsEccCorrected_ = 0;
    mutable std::uint64_t wordsTransientCleared_ = 0;
    mutable std::uint64_t wordsUncorrectable_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_NVM_FAULT_MODEL_HH
