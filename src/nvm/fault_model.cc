#include "nvm/fault_model.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/** Domain separators so the hash uses never correlate. */
constexpr std::uint64_t kTearSalt = 0x7465617244534c54ULL;
constexpr std::uint64_t kFaultySalt = 0x6d65646961464c54ULL;
constexpr std::uint64_t kBitSalt = 0x62697470636b5354ULL;
constexpr std::uint64_t kNbitsSalt = 0x6e626974636e7453ULL;
constexpr std::uint64_t kTransientSalt = 0x7472616e73466c54ULL;

/** Odd multiplier decorrelating the extra per-word bit picks. */
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/** Map a 64-bit hash to a uniform double in [0, 1). */
double
hashToUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

void
FaultModel::setTornWrites(bool on)
{
    tornWrites_ = on;
    if (!on)
        pending_.clear();
}

void
FaultModel::addMediaFault(Addr begin, Addr end, MediaFaultKind kind,
                          double word_probability,
                          unsigned max_bits_per_word)
{
    HOOP_ASSERT(begin < end, "empty media-fault range");
    HOOP_ASSERT(word_probability >= 0.0 && word_probability <= 1.0,
                "media-fault probability outside [0, 1]");
    HOOP_ASSERT(max_bits_per_word >= 1 && max_bits_per_word <= 64,
                "per-word fault bit budget outside [1, 64]");
    ranges_.push_back(
        {begin, end, kind, word_probability, max_bits_per_word});
}

void
FaultModel::reset()
{
    pending_.clear();
    ranges_.clear();
    nextSerial_ = 0;
    writesTorn_ = 0;
    wordsTorn_ = 0;
    wordsCorrupted_ = 0;
    wordsEccCorrected_ = 0;
    wordsTransientCleared_ = 0;
    wordsUncorrectable_ = 0;
}

std::uint8_t *
FaultModel::noteWrite(Addr addr, std::size_t len, Tick completion,
                      Tick now)
{
    HOOP_ASSERT(tornWrites_, "noteWrite with torn writes off");
    // Completed writes can no longer tear; keep the in-flight window
    // small. The channel completes writes in issue order, so the
    // completed entries form a prefix of the deque.
    while (!pending_.empty() && pending_.front().completion <= now)
        pending_.pop_front();
    PendingWrite &w = pending_.emplace_back();
    w.addr = addr;
    w.completion = completion;
    w.serial = nextSerial_++;
    w.preimage.resize(len);
    return w.preimage.data();
}

bool
FaultModel::wordPersists(std::uint64_t serial, std::uint64_t w) const
{
    // Nested mix keeps (serial, w) pairs collision-free: a linear
    // combination like serial*K+w would alias word K of one write
    // with word 0 of the next, correlating their tear decisions.
    return mixHash(mixHash(seed_ ^ kTearSalt ^ serial) ^ w) & 1;
}

FaultModel::WordFault
FaultModel::classifyWord(Addr word) const
{
    WordFault f;
    const std::uint64_t coin = mixHash(seed_ ^ kFaultySalt ^ word);
    for (const MediaFaultRange &r : ranges_) {
        // The range covers the word when their byte windows overlap
        // (a word straddling a range edge still counts; the per-bit
        // clamp in corruptWord confines the damage to the range).
        if (word + kWordSize <= r.begin || word >= r.end)
            continue;
        if (hashToUnit(coin) >= r.wordProbability)
            continue;
        f.faulty = true;
        f.kind = r.kind;
        f.range = &r;
        f.nbits = 1;
        if (r.maxBitsPerWord > 1) {
            f.nbits += static_cast<unsigned>(
                mixHash(seed_ ^ kNbitsSalt ^ word) %
                r.maxBitsPerWord);
        }
        return f; // first scheduled covering range wins
    }
    return f;
}

unsigned
FaultModel::transientClearAttempt(Addr word) const
{
    return 1 + static_cast<unsigned>(
                   mixHash(seed_ ^ kTransientSalt ^ word) %
                   transientAttempts_);
}

unsigned
FaultModel::corruptWord(Addr word, const WordFault &f, Addr read_begin,
                        Addr read_end, std::uint8_t *buf) const
{
    // Bit 0 keeps the classic single-bit formula so single-bit fault
    // schedules reproduce the exact pre-ECC corruption patterns; extra
    // bits are decorrelated re-mixes of the same per-word base hash.
    const std::uint64_t base = mixHash(seed_ ^ kBitSalt ^ word);
    std::uint64_t chosen = 0; // bitmask of already-picked bit indices
    unsigned picked = 0;
    unsigned applied = 0;
    for (std::uint64_t probe = 0; picked < f.nbits && probe < 128;
         ++probe) {
        const unsigned bit = static_cast<unsigned>(
            (probe == 0 ? base : mixHash(base ^ (probe * kGolden))) &
            63);
        if (chosen & (1ULL << bit))
            continue;
        chosen |= 1ULL << bit;
        ++picked;
        const Addr byte = word + bit / 8;
        if (byte < read_begin || byte >= read_end ||
            byte < f.range->begin || byte >= f.range->end) {
            continue; // affected byte outside this read/range
        }
        ++applied;
        if (!buf)
            continue; // dry run: count applicable bits only
        std::uint8_t &b = buf[byte - read_begin];
        const std::uint8_t mask =
            static_cast<std::uint8_t>(1u << (bit % 8));
        switch (f.kind) {
          case MediaFaultKind::BitFlip:
            b ^= mask;
            break;
          case MediaFaultKind::StuckAtZero:
            b &= static_cast<std::uint8_t>(~mask);
            break;
          case MediaFaultKind::StuckAtOne:
            b |= mask;
            break;
        }
    }
    return applied;
}

void
FaultModel::filterRead(Addr addr, std::uint8_t *buf, std::size_t len,
                       unsigned attempt, ReadFaultInfo *rf) const
{
    if (ranges_.empty())
        return;
    const Addr end = addr + len;
    for (Addr word = alignDown(addr, kWordSize); word < end;
         word += kWordSize) {
        const WordFault f = classifyWord(word);
        if (!f.faulty)
            continue;
        // ECC corrects small faults in-line: delivered clean. Only
        // words whose damage would actually land in this read count
        // as corrections (a clamped-away fault costs nothing).
        if (eccBits_ > 0 && f.nbits <= eccBits_) {
            if (corruptWord(word, f, addr, end, nullptr) > 0) {
                ++wordsEccCorrected_;
                if (rf)
                    ++rf->correctedWords;
            }
            continue;
        }
        // Transient (read-disturb) BitFlips clear from a seeded
        // attempt onwards; stuck-at faults never do.
        if (f.kind == MediaFaultKind::BitFlip &&
            transientAttempts_ > 0) {
            if (attempt >= transientClearAttempt(word)) {
                if (corruptWord(word, f, addr, end, nullptr) > 0)
                    ++wordsTransientCleared_;
                continue;
            }
            if (corruptWord(word, f, addr, end, buf) > 0) {
                ++wordsCorrupted_;
                if (rf)
                    ++rf->transientWords;
            }
            continue;
        }
        // Uncorrectable: delivered corrupt.
        if (corruptWord(word, f, addr, end, buf) > 0) {
            ++wordsCorrupted_;
            ++wordsUncorrectable_;
            if (rf) {
                ++rf->uncorrectableWords;
                if (rf->firstUncorrectable == kInvalidAddr)
                    rf->firstUncorrectable = word;
            }
        }
    }
}

FaultSeverity
FaultModel::classifySeverity(Addr word) const
{
    const WordFault f = classifyWord(alignDown(word, kWordSize));
    if (!f.faulty)
        return FaultSeverity::Clean;
    if (eccBits_ > 0 && f.nbits <= eccBits_)
        return FaultSeverity::Correctable;
    if (f.kind == MediaFaultKind::BitFlip && transientAttempts_ > 0)
        return FaultSeverity::Transient;
    return FaultSeverity::Uncorrectable;
}

bool
FaultModel::uncorrectableInRange(Addr addr, std::size_t len) const
{
    if (ranges_.empty())
        return false;
    const Addr end = addr + len;
    for (Addr word = alignDown(addr, kWordSize); word < end;
         word += kWordSize) {
        if (classifySeverity(word) == FaultSeverity::Uncorrectable)
            return true;
    }
    return false;
}

bool
FaultModel::mediaFaultyRange(Addr addr, std::size_t len) const
{
    const Addr end = addr + len;
    for (const MediaFaultRange &r : ranges_) {
        if (r.wordProbability <= 0.0)
            continue;
        const Addr lo = std::max(addr, r.begin);
        const Addr hi = std::min(end, r.end);
        if (lo >= hi)
            continue;
        for (Addr word = alignDown(lo, kWordSize); word < hi;
             word += kWordSize) {
            if (hashToUnit(mixHash(seed_ ^ kFaultySalt ^ word)) <
                r.wordProbability) {
                return true;
            }
        }
    }
    return false;
}

} // namespace hoopnvm
