/**
 * @file
 * Hash-based physical-to-physical address mapping table (paper §III-C).
 *
 * Maps home-region cache-line addresses to OOP-region slice indices so
 * that LLC misses observe the most recent out-of-place version. The
 * table is a fixed-capacity structure in the memory controller (2 MB
 * default, 16 bytes per entry); when it fills up the controller must
 * run GC to drain entries (Fig. 13 sweeps this size).
 *
 * The entries live in a FlatMap keyed by line number, the flat
 * open-addressed layout controller SRAM has; this class adds only the
 * modelled capacity. The host allocation grows lazily from at most 64
 * slots, so a Fig. 13 8 MB sweep whose run touches a few thousand lines
 * does not pay for half a million buckets per System.
 *
 * forEach order is simulated behaviour (the emergency drain migrates
 * the first committed entry it visits). It follows from the key hash,
 * the 64-slot start that clear() returns to, and FlatMap's growth and
 * deletion; mapping_table_test pins it.
 */

#ifndef HOOPNVM_HOOP_MAPPING_TABLE_HH
#define HOOPNVM_HOOP_MAPPING_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace hoopnvm
{

/** Fixed-capacity home-line -> OOP-slice mapping. */
class MappingTable
{
  public:
    /** Modelled SRAM cost of one entry (home addr + OOP addr). */
    static constexpr std::uint64_t kEntryBytes = 16;

    /** @param bytes Modelled table capacity in bytes. */
    explicit MappingTable(std::uint64_t bytes)
        : capacity_(static_cast<std::size_t>(bytes / kEntryBytes))
    {
        HOOP_ASSERT(capacity_ > 0, "mapping table too small for one entry");
        clear();
    }

    /**
     * Insert or update the mapping for @p line.
     * @return false when the table is full and @p line is not already
     *         present (the caller must GC and retry).
     */
    bool
    insert(Addr line, std::uint32_t slice_idx)
    {
        HOOP_ASSERT(isAligned(line, kCacheLineSize),
                    "mapping table keys are line addresses");
        if (!full()) {
            entries_[line / kCacheLineSize] = slice_idx;
            return true;
        }
        std::uint32_t *v = entries_.find(line / kCacheLineSize);
        if (v)
            *v = slice_idx; // update in place, even when full
        return v != nullptr;
    }

    /** Slice index mapped for @p line, if any. */
    std::optional<std::uint32_t>
    lookup(Addr line) const
    {
        const std::uint32_t *v = entries_.find(line / kCacheLineSize);
        if (!v)
            return std::nullopt;
        return *v;
    }

    /** Drop the mapping for @p line; no-op if absent. */
    void remove(Addr line) { entries_.erase(line / kCacheLineSize); }

    /** Visit every (line, slice) entry. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        entries_.forEach([&fn](std::uint64_t n, std::uint32_t slice) {
            fn(static_cast<Addr>(n * kCacheLineSize), slice);
        });
    }

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return size() >= capacity_; }

    /** Drop every entry and shrink to the starting slots (crash). */
    void
    clear()
    {
        entries_ = FlatMap<std::uint32_t>();
        entries_.reserve(std::min<std::size_t>(capacity_, kStartEntries));
    }

    /**
     * Host memory currently allocated for slots, in bytes. Exposed so
     * the lazy-growth behaviour is testable: a freshly built table
     * must cost under a kilobyte regardless of the modelled capacity.
     */
    std::size_t
    hostAllocatedBytes() const
    {
        return entries_.slots() *
               (sizeof(std::uint64_t) + sizeof(std::uint32_t));
    }

  private:
    /** Entries that fit 64 slots at FlatMap's 3/4 load bound. */
    static constexpr std::size_t kStartEntries = 48;

    std::size_t capacity_;
    FlatMap<std::uint32_t> entries_;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_MAPPING_TABLE_HH
