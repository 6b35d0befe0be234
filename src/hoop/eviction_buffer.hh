/**
 * @file
 * GC eviction buffer (paper §III-C).
 *
 * When GC migrates a line from the OOP region back to its home address
 * and removes the corresponding mapping-table entry, a racing LLC miss
 * must not observe the stale home copy. The eviction buffer keeps the
 * most recently migrated lines (128 KB default) so misses that fall in
 * that window are served from the controller. It is a bounded FIFO of
 * full cache lines; entries are replaced in insertion order.
 */

#ifndef HOOPNVM_HOOP_EVICTION_BUFFER_HH
#define HOOPNVM_HOOP_EVICTION_BUFFER_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace hoopnvm
{

/** Bounded FIFO of recently GC-migrated cache lines. */
class EvictionBuffer
{
  public:
    /** Modelled SRAM cost of one entry (tag + line data). */
    static constexpr std::uint64_t kEntryBytes = 72;

    /** @param bytes Modelled buffer capacity in bytes. */
    explicit EvictionBuffer(std::uint64_t bytes);

    /** Insert or refresh the copy of @p line. */
    void put(Addr line, const std::uint8_t *data);

    /** Copy out the buffered line, if present. */
    bool get(Addr line, std::uint8_t *out) const;

    /** Drop the entry for @p line, if present. */
    void invalidate(Addr line);

    std::size_t size() const { return index.size(); }
    std::size_t capacity() const { return entries.size(); }

    /** Drop everything (crash / post-recovery). */
    void clear();

  private:
    struct Entry
    {
        bool valid = false;
        Addr addr = kInvalidAddr;
        std::array<std::uint8_t, kCacheLineSize> data{};
    };

    std::vector<Entry> entries;
    std::unordered_map<Addr, std::size_t> index;
    std::size_t nextSlot = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_EVICTION_BUFFER_HH
