#include "baselines/log_region.hh"

#include <algorithm>
#include <cstring>

#include "analysis/ordering_tracker.hh"
#include "common/crc32.hh"
#include "common/errors.hh"
#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/**
 * Durable ring state, kept at the base of the log area.
 *
 * The only mutable field is tailIdx — a single 8-byte word, so a torn
 * superblock write merely reverts it to the previous value (the NVM
 * word is the tear unit). The matching tail sequence is derived as
 * tailIdx + 1 (head and nextSeq move in lockstep from 0 and 1), never
 * stored: persisting it separately would let the two words tear
 * independently into an inconsistent pair that disowns the whole log.
 */
struct Superblock
{
    std::uint32_t magic;
    std::uint32_t pad;
    std::uint64_t tailIdx;
};

constexpr std::uint32_t kSuperMagic = 0x4c4f4752; // "LOGR"
constexpr std::uint64_t kSuperBytes = 64;

} // namespace

void
LogEntry::encode(std::uint8_t *out) const
{
    std::memset(out, 0, kEntryBytes);
    std::memcpy(out + 0, words.data(), 64);
    std::memcpy(out + 64, &line, 8);
    std::memcpy(out + 72, &txId, 8);
    std::memcpy(out + 80, &commitId, 8);
    std::memcpy(out + 88, &seq, 8);
    out[96] = mask;
    out[97] = count;
    out[98] = static_cast<std::uint8_t>(type);
    // Entry writes span 16 NVM words and are not atomic: a crash can
    // revert any subset of them while the type byte and sequence word
    // survive. The CRC (over every meaningful byte above) lets the
    // post-crash scan reject such a torn entry instead of replaying
    // its garbage payload as committed data.
    const std::uint32_t crc = crc32c(out, 100);
    std::memcpy(out + 100, &crc, 4);
}

LogEntry
LogEntry::decode(const std::uint8_t *in)
{
    LogEntry e;
    e.type = static_cast<LogEntryType>(in[98]);
    if (e.type == LogEntryType::Invalid)
        return e;
    std::uint32_t stored;
    std::memcpy(&stored, in + 100, 4);
    e.crcOk = stored == crc32c(in, 100);
    std::memcpy(e.words.data(), in + 0, 64);
    std::memcpy(&e.line, in + 64, 8);
    std::memcpy(&e.txId, in + 72, 8);
    std::memcpy(&e.commitId, in + 80, 8);
    std::memcpy(&e.seq, in + 88, 8);
    e.mask = in[96];
    e.count = in[97];
    return e;
}

LogRegion::LogRegion(NvmDevice &nvm_, Addr base_, std::uint64_t bytes,
                     const SystemConfig *cfg)
    : nvm(nvm_), base(base_),
      capacity_((bytes - kSuperBytes) / LogEntry::kEntryBytes)
{
    if (cfg && cfg->ft.enabled) {
        // Carve the durable retirement bitmap from the area's tail.
        // areaBytes() of the un-shrunk capacity over-reserves by at
        // most one slot's worth of bitmap — deliberately simple.
        const std::uint64_t area = RetirementMap::areaBytes(capacity_);
        HOOP_ASSERT(bytes > kSuperBytes + area +
                                16 * LogEntry::kEntryBytes,
                    "log region too small for a retirement map");
        capacity_ = (bytes - kSuperBytes - area) / LogEntry::kEntryBytes;
        retireMap_.attach(nvm, base + bytes - area, capacity_);
        skipSettleFences_ = cfg->debugSkipSettleFences;
    }
    HOOP_ASSERT(capacity_ >= 16, "log region too small");
    writeSuperblock(0);
}

bool
LogRegion::slotUncorrectable(std::uint64_t slot) const
{
    return nvm.faults().uncorrectableInRange(
        base + kSuperBytes + slot * LogEntry::kEntryBytes,
        LogEntry::kEntryBytes);
}

Tick
LogRegion::retireSlot(std::uint64_t slot, Tick now)
{
    Tick done = retireMap_.persistRetire(slot, now);
    if (ordering_)
        ordering_->addDep("log-retire-bitmap", 0);
    // The retirement must be durable before anything acts on it (a
    // burn that skips the slot, a scan that steps over it): a crash in
    // between would otherwise scan the bad slot, read garbage, and cut
    // the live suffix — losing acknowledged entries behind it.
    if (!skipSettleFences_)
        nvm.faults().settleUpTo(done);
    if (ordering_)
        ordering_->trigger("log-retire-bitmap", 0, done, 1, true);
    return done;
}

Tick
LogRegion::skipBadHead(Tick now)
{
    if (!retireMap_.attached())
        return now;
    while (size() < capacity_) {
        const std::uint64_t slot = head % capacity_;
        if (!retireMap_.isRetired(slot)) {
            if (!slotUncorrectable(slot))
                break;
            // Program-verify failure: the head slot's cells cannot
            // hold data. Retire it durably, then burn past it.
            now = retireSlot(slot, now);
        }
        // Burn: consume the logical index AND its sequence number so
        // scans keep seeing seq == logical index + 1 in lockstep.
        ++head;
        ++nextSeq;
    }
    return now;
}

bool
LogRegion::canAppend(std::uint64_t n) const
{
    if (!retireMap_.attached())
        return size() + n <= capacity_;
    // Appends are single-threaded and nothing truncates mid-commit, so
    // the slots a burst of n appends would use are exactly the first n
    // usable free slots from the head — count them without mutating.
    std::uint64_t idx = head;
    std::uint64_t good = 0;
    while (idx - tail < capacity_ && good < n) {
        const std::uint64_t slot = idx % capacity_;
        if (!retireMap_.isRetired(slot) && !slotUncorrectable(slot))
            ++good;
        ++idx;
    }
    return good >= n;
}

Tick
LogRegion::scrubSlots(Tick now, std::uint32_t count,
                      std::uint64_t *corrected)
{
    if (!retireMap_.attached() || capacity_ == 0)
        return now;
    Tick last = now;
    const std::uint64_t live = size();
    const std::uint64_t tail_slot = tail % capacity_;
    std::uint8_t buf[LogEntry::kEntryBytes];
    for (std::uint32_t i = 0; i < count && i < capacity_; ++i) {
        const std::uint64_t slot = scrubCursor_;
        scrubCursor_ = (scrubCursor_ + 1) % capacity_;
        if (retireMap_.isRetired(slot))
            continue;
        ReadFaultInfo rf;
        last = std::max(
            last, nvm.read(now,
                           base + kSuperBytes +
                               slot * LogEntry::kEntryBytes,
                           buf, LogEntry::kEntryBytes, &rf));
        if (corrected)
            *corrected += rf.correctedWords;
        if (!rf.uncorrectable())
            continue;
        // Only retire slots holding no live entry; a live slot is
        // handled by the scan-side skip once it is truncated past.
        const bool is_live =
            live > 0 &&
            (slot + capacity_ - tail_slot) % capacity_ < live;
        if (!is_live)
            last = std::max(last, retireSlot(slot, now));
    }
    return last;
}

std::vector<std::pair<Addr, Addr>>
LogRegion::freeSlotRanges() const
{
    std::vector<std::pair<Addr, Addr>> out;
    const std::uint64_t live = size();
    const std::uint64_t tail_slot = tail % capacity_;
    for (std::uint64_t slot = 0; slot < capacity_; ++slot) {
        const bool is_live =
            live > 0 &&
            (slot + capacity_ - tail_slot) % capacity_ < live;
        if (is_live ||
            (retireMap_.attached() && retireMap_.isRetired(slot)))
            continue;
        const Addr b =
            base + kSuperBytes + slot * LogEntry::kEntryBytes;
        if (!out.empty() && out.back().second == b)
            out.back().second = b + LogEntry::kEntryBytes;
        else
            out.emplace_back(b, b + LogEntry::kEntryBytes);
    }
    return out;
}

void
LogRegion::loadRetirement()
{
    if (!retireMap_.attached())
        return;
    retireMap_.loadDurable();
}

Addr
LogRegion::entryAddr(std::uint64_t logical_idx) const
{
    return base + kSuperBytes +
           (logical_idx % capacity_) * LogEntry::kEntryBytes;
}

void
LogRegion::writeSuperblock(Tick now)
{
    Superblock sb{};
    sb.magic = kSuperMagic;
    sb.tailIdx = tail;
    nvm.write(now, base, &sb, sizeof(sb));
}

Tick
LogRegion::append(Tick now, LogEntry e)
{
    // Program-verify the head slot first: burn past bad slots so the
    // entry never lands on uncorrectable cells. Burning can exhaust
    // the ring; that is a structured capacity error, not a crash.
    now = skipBadHead(now);
    if (full() && retireMap_.attached()) {
        throw TxRejected{RejectCause::LogExhausted,
                         "log ring exhausted after bad-slot burns; "
                         "truncate or grow auxBytes"};
    }
    HOOP_ASSERT(!full(), "append to a full log (caller must truncate)");
    e.seq = nextSeq++;
    std::uint8_t buf[LogEntry::kEntryBytes];
    e.encode(buf);
    const Tick done =
        nvm.write(now, entryAddr(head), buf, LogEntry::kEntryBytes);
    ++head;
    return done;
}

Tick
LogRegion::truncate(Tick now, std::uint64_t n)
{
    HOOP_ASSERT(n <= size(), "truncating more entries than live");
    if (!retireMap_.attached()) {
        tail += n;
    } else {
        // Callers count *entries*; burned logical indices interleave
        // with them and carry none, so skip-count: a burned index
        // advances the tail without consuming the caller's budget.
        // Trailing burns are swallowed too — they pin no data.
        std::uint64_t left = n;
        while (left > 0 && tail < head) {
            if (!retireMap_.isRetired(tail % capacity_))
                --left;
            ++tail;
        }
        while (tail < head && retireMap_.isRetired(tail % capacity_))
            ++tail;
    }
    writeSuperblock(now);
    return now;
}

void
LogRegion::clear(Tick now)
{
    tail = head;
    writeSuperblock(now);
}

void
LogRegion::scan(const std::function<void(const LogEntry &)> &fn) const
{
    // Durable-state-only walk: read the superblock, then follow
    // strictly ascending sequence numbers from the persisted tail.
    Superblock sb{};
    nvm.peek(base, &sb, sizeof(sb));
    if (sb.magic != kSuperMagic)
        return;
    for (std::uint64_t i = 0; i < capacity_; ++i) {
        // Retired slots were burned at append time (no entry, but a
        // consumed sequence number): step over them BEFORE decoding —
        // their garbage bytes would otherwise read as a cut and lose
        // every acknowledged entry behind them.
        if (retireMap_.attached() &&
            retireMap_.isRetired((sb.tailIdx + i) % capacity_))
            continue;
        std::uint8_t buf[LogEntry::kEntryBytes];
        nvm.peek(entryAddr(sb.tailIdx + i), buf, LogEntry::kEntryBytes);
        const LogEntry e = LogEntry::decode(buf);
        // Live entries verify their CRC and carry exactly the expected
        // ascending sequence (seq == logical index + 1 by the lockstep
        // head/nextSeq discipline, burns included); anything else — an
        // unwritten slot, stale previous-lap entry, or a torn
        // in-flight write — ends the live suffix.
        if (e.type == LogEntryType::Invalid || !e.crcOk ||
            e.seq != sb.tailIdx + 1 + i)
            break;
        fn(e);
    }
}

void
LogRegion::forEachLive(
    const std::function<void(const LogEntry &)> &fn) const
{
    for (std::uint64_t idx = tail; idx < head; ++idx) {
        if (retireMap_.attached() &&
            retireMap_.isRetired(idx % capacity_))
            continue; // burned logical index: holds no entry
        std::uint8_t buf[LogEntry::kEntryBytes];
        nvm.peek(entryAddr(idx), buf, LogEntry::kEntryBytes);
        fn(LogEntry::decode(buf));
    }
}

} // namespace hoopnvm
