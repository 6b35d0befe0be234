/**
 * @file
 * Committed key -> version shadow of the tree workloads.
 *
 * An update transaction picks the pick-th committed key in key order.
 * Keeping the shadow as one sorted vector makes that pick an index
 * instead of a walk over an ordered map. The price is an insert that
 * shifts the vector's tail; at the shadow sizes the workloads reach
 * (thousands of keys per core) that move costs far less than the walk
 * an update paid.
 */

#ifndef HOOPNVM_WORKLOADS_SORTED_SHADOW_HH
#define HOOPNVM_WORKLOADS_SORTED_SHADOW_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace hoopnvm
{

/** Sorted, unique-key (key, version) pairs. */
class SortedShadow
{
  public:
    /** (key, version). */
    using Entry = std::pair<std::uint64_t, std::uint64_t>;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    void clear() { entries_.clear(); }

    /** The @p i-th entry in key order. */
    Entry &operator[](std::size_t i) { return entries_[i]; }

    bool
    contains(std::uint64_t key) const
    {
        const auto it = lowerBound(key);
        return it != entries_.end() && it->first == key;
    }

    /** Insert @p key, which must be absent, at @p version. */
    void
    insert(std::uint64_t key, std::uint64_t version)
    {
        entries_.insert(lowerBound(key), Entry{key, version});
    }

    auto begin() const { return entries_.cbegin(); }
    auto end() const { return entries_.cend(); }

  private:
    std::vector<Entry>::const_iterator
    lowerBound(std::uint64_t key) const
    {
        return std::lower_bound(
            entries_.begin(), entries_.end(), key,
            [](const Entry &e, std::uint64_t k) { return e.first < k; });
    }

    std::vector<Entry> entries_;
};

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_SORTED_SHADOW_HH
