/**
 * @file
 * Durable append-only log substrate shared by the baseline schemes.
 *
 * Opt-Redo, Opt-Undo, LSM and OSP all need a persistent,
 * crash-scannable log: redo data images, undo (old) images, LSM's
 * appended line images, commit records, and OSP's shadow-flip records.
 * The log is a ring of 128-byte entries in the auxiliary NVM region.
 * Entries carry a monotonic sequence number; a small superblock
 * persists the ring tail on every truncation, so a post-crash scan can
 * walk forward from the durable tail while entry sequence numbers keep
 * ascending, recovering exactly the live suffix (the standard
 * head/tail-pointer discipline of hardware log units).
 */

#ifndef HOOPNVM_BASELINES_LOG_REGION_HH
#define HOOPNVM_BASELINES_LOG_REGION_HH

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "nvm/nvm_device.hh"
#include "nvm/retirement_map.hh"
#include "sim/system_config.hh"

namespace hoopnvm
{

class OrderingTracker;

/** Kinds of entries the baseline schemes write. */
enum class LogEntryType : std::uint8_t
{
    Invalid = 0,
    RedoData = 1,   ///< New words of one line (Opt-Redo).
    Commit = 2,     ///< Commit record of a transaction.
    UndoImage = 3,  ///< Old image of one line (Opt-Undo).
    OspRecord = 4,  ///< Shadow-flip list of a committed tx (OSP).
    LsmData = 5,    ///< Appended word updates (LSM).
};

/** Decoded 128-byte log entry. */
struct LogEntry
{
    static constexpr std::size_t kEntryBytes = 128;

    LogEntryType type = LogEntryType::Invalid;
    TxId txId = kInvalidTxId;
    std::uint64_t commitId = 0;
    Addr line = kInvalidAddr;
    std::uint8_t mask = 0;  ///< Valid words (bit i = word i of line).
    std::uint8_t count = 0; ///< Payload count for list-style entries.
    std::uint64_t seq = 0;

    /** CRC verdict filled by decode(); encode() stamps the CRC. A
     *  torn or corrupt entry cannot be trusted in any field, so a
     *  post-crash scan must cut the log at the first failure. */
    bool crcOk = true;

    /** Word payload: line words, or a list of line addresses (OSP). */
    std::array<std::uint64_t, 8> words{};

    void encode(std::uint8_t *out) const;
    static LogEntry decode(const std::uint8_t *in);
};

/** Ring of durable log entries with a persisted tail superblock. */
class LogRegion
{
  public:
    /**
     * @param nvm   Backing device.
     * @param base  First byte of the log area (64-byte superblock,
     *              then the entry ring).
     * @param bytes Total area size.
     * @param cfg   When non-null and cfg->ft.enabled, a durable slot
     *              retirement bitmap is carved from the area's tail and
     *              the ring runs the media-tolerance discipline: bad
     *              slots are program-verified at append, burned (head
     *              and nextSeq advance in lockstep past them, keeping
     *              seq == logical index + 1), durably retired, and
     *              skipped — never cut — by post-crash scans.
     */
    LogRegion(NvmDevice &nvm, Addr base, std::uint64_t bytes,
              const SystemConfig *cfg = nullptr);

    /** Entries the ring can hold. */
    std::uint64_t capacity() const { return capacity_; }

    /** Live entries (head - tail). */
    std::uint64_t size() const { return head - tail; }

    bool full() const { return size() >= capacity_; }

    /**
     * True when @p n appends are guaranteed to succeed from the current
     * head — i.e. n usable (non-retired, non-faulted) free slots exist,
     * counting the bad slots the appends would burn through. Pure
     * check: lets a multi-record commit reserve space upfront so it
     * never throws after a partial append.
     */
    bool canAppend(std::uint64_t n) const;

    /**
     * Append @p e durably (stamps its sequence number).
     * @return Completion tick of the entry write.
     */
    Tick append(Tick now, LogEntry e);

    /**
     * Drop the oldest @p n entries and persist the new tail.
     * @return Completion tick of the superblock write.
     */
    Tick truncate(Tick now, std::uint64_t n);

    /** Drop everything and persist the empty state. */
    void clear(Tick now);

    /**
     * Post-crash scan: visit the live entries oldest-first, using only
     * durable state (superblock + entry sequence numbers).
     */
    void scan(const std::function<void(const LogEntry &)> &fn) const;

    /** Visit live entries oldest-first from host state (no crash). */
    void forEachLive(const std::function<void(const LogEntry &)> &fn)
        const;

    // ---- Runtime fault tolerance (inert unless cfg.ft.enabled) ----

    /** Attach the ordering analyzer for retirement-rule tagging. */
    void setOrdering(OrderingTracker *t) { ordering_ = t; }

    /** True when the slot-retirement machinery is active. */
    bool faultToleranceEnabled() const { return retireMap_.attached(); }

    /** Ring slots durably retired as bad. */
    std::uint64_t retiredSlots() const { return retireMap_.retiredCount(); }

    /** Fraction of ring capacity lost to retirement, in [0, 1]. */
    double
    degradedFraction() const
    {
        return static_cast<double>(retireMap_.retiredCount()) /
               static_cast<double>(capacity_);
    }

    /**
     * One background scrub pass: patrol-read @p count ring slots round
     * robin, counting ECC corrections into @p corrected (may be null),
     * and durably retire uncorrectable slots that hold no live entry.
     * @return Completion tick of the patrol traffic.
     */
    Tick scrubSlots(Tick now, std::uint32_t count,
                    std::uint64_t *corrected = nullptr);

    /**
     * Adopt the durable retirement bitmap into the host mirror (start
     * of recovery); retired slots are burned, not scanned.
     */
    void loadRetirement();

    /**
     * Byte ranges of ring slots holding no live entry and not retired
     * (adjacent slots coalesced) — the slots a wear-out fault may be
     * scheduled over without damaging durable data.
     */
    std::vector<std::pair<Addr, Addr>> freeSlotRanges() const;

  private:
    Addr entryAddr(std::uint64_t logical_idx) const;
    void writeSuperblock(Tick now);

    /** True when physical slot @p slot sits on uncorrectable cells. */
    bool slotUncorrectable(std::uint64_t slot) const;

    /**
     * Program-verify at the ring head: burn (head++, nextSeq++) past
     * retired or uncorrectable slots, durably retiring newly-degraded
     * ones with a fenced bitmap write ("log-retire-bitmap" rule).
     */
    Tick skipBadHead(Tick now);

    /** Durably retire physical slot @p slot (fenced). */
    Tick retireSlot(std::uint64_t slot, Tick now);

    NvmDevice &nvm;
    Addr base;
    std::uint64_t capacity_;

    /** Monotonic logical indices; slot = idx % capacity. */
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::uint64_t nextSeq = 1;

    /** Fence retirement bitmap writes (cfg.debugSkipSettleFences). */
    bool skipSettleFences_ = false;

    /** Round-robin slot cursor of the background scrubber. */
    std::uint64_t scrubCursor_ = 0;

    /** Durable bad-slot bitmap (attached only when cfg.ft.enabled). */
    RetirementMap retireMap_;

    OrderingTracker *ordering_ = nullptr;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_LOG_REGION_HH
