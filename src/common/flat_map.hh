/**
 * @file
 * Open-addressed hash map from 64-bit keys to POD values, shared by the
 * simulator's metadata hot paths (HOOP's mapping table, home-region
 * freshness watermarks, the baselines' staged write sets, GC
 * coalescing and recovery replay, the ordering analyzer's in-flight
 * writers).
 *
 * Linear probing over a power-of-two slot array with backward-shift
 * deletion (no tombstones), keys packed in their own array so the probe
 * loop scans eight 8-byte keys per host cache line and touches a value
 * only on a hit. It has no capacity of its own and grows by doubling at
 * 3/4 load; MappingTable adds the modelled capacity on top.
 *
 * The value array is deliberately left uninitialized (and clear()
 * keeps the allocation): a slot's value is written by operator[]
 * before it becomes reachable, so zeroing it wholesale on every
 * growth step would only add memory traffic — with multi-hundred-byte
 * accumulator values (the GC and recovery line accumulators) that
 * zeroing dominated the map's cost.
 *
 * Constraints: keys must never equal kEmptyKey (all-ones — impossible
 * for the simulated addresses and sequence-assigned ids stored here),
 * and V must be trivially copyable (slots are relocated with plain
 * assignment during growth and deletion). Iteration via forEach visits
 * slots in table order, which depends on the insertion history; callers
 * whose observable behaviour depends on order must sort what they
 * collect (the GC and recovery paths do).
 */

#ifndef HOOPNVM_COMMON_FLAT_MAP_HH
#define HOOPNVM_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.hh"

namespace hoopnvm
{

template <typename V>
class FlatMap
{
  public:
    static constexpr std::uint64_t kEmptyKey =
        ~static_cast<std::uint64_t>(0);

    FlatMap()
        : keys_(kInitialSlots, kEmptyKey),
          vals_(std::make_unique_for_overwrite<V[]>(kInitialSlots))
    {
    }

    /** Deep copy: same slots, same entries, same visit order. */
    FlatMap(const FlatMap &other)
        : size_(other.size_), keys_(other.keys_),
          vals_(std::make_unique_for_overwrite<V[]>(other.keys_.size()))
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmptyKey)
                vals_[i] = other.vals_[i];
        }
    }

    FlatMap &
    operator=(const FlatMap &other)
    {
        FlatMap copy(other);
        std::swap(size_, copy.size_);
        keys_.swap(copy.keys_);
        vals_.swap(copy.vals_);
        return *this;
    }

    FlatMap(FlatMap &&) = default;
    FlatMap &operator=(FlatMap &&) = default;

    /** Pointer to the value for @p key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t i = findSlot(key);
        return i == kNoSlot ? nullptr : &vals_[i];
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::size_t i = findSlot(key);
        return i == kNoSlot ? nullptr : &vals_[i];
    }

    bool contains(std::uint64_t key) const { return findSlot(key) != kNoSlot; }

    /**
     * Value for @p key, inserting a value-initialized V when absent.
     * The reference stays valid until the next insertion (growth may
     * relocate slots).
     */
    V &
    operator[](std::uint64_t key)
    {
        std::size_t i = findSlot(key);
        if (i != kNoSlot)
            return vals_[i];
        if ((size_ + 1) * 4 > keys_.size() * 3)
            grow();
        const std::size_t mask = keys_.size() - 1;
        i = homeSlot(key);
        while (keys_[i] != kEmptyKey)
            i = (i + 1) & mask;
        keys_[i] = key;
        vals_[i] = V{};
        ++size_;
        return vals_[i];
    }

    /** Drop @p key; no-op if absent. Backward-shift, no tombstones. */
    void
    erase(std::uint64_t key)
    {
        std::size_t i = findSlot(key);
        if (i == kNoSlot)
            return;
        --size_;
        const std::size_t mask = keys_.size() - 1;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask;
            if (keys_[j] == kEmptyKey)
                break;
            const std::size_t home = homeSlot(keys_[j]);
            // keys_[j] can fill the hole unless its home slot lies
            // (cyclically) strictly after the hole — then it is
            // already reachable from its home and must stay put.
            const bool keep = (i <= j) ? (i < home && home <= j)
                                       : (i < home || home <= j);
            if (!keep) {
                keys_[i] = keys_[j];
                vals_[i] = vals_[j];
                i = j;
            }
        }
        keys_[i] = kEmptyKey;
    }

    /** Visit every (key, value) pair in table (not insertion) order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmptyKey)
                fn(keys_[i], vals_[i]);
        }
    }

    /** Grow the slot array so @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        while (n * 4 > keys_.size() * 3)
            grow();
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Allocated slot count (a power of two, at least 16). */
    std::size_t slots() const { return keys_.size(); }

    /** Drop every entry, retaining the slot allocation. */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), kEmptyKey);
        size_ = 0;
    }

  private:
    static constexpr std::size_t kInitialSlots = 16;
    static constexpr std::size_t kNoSlot = ~static_cast<std::size_t>(0);

    std::size_t
    homeSlot(std::uint64_t key) const
    {
        return static_cast<std::size_t>(mixHash(key)) &
               (keys_.size() - 1);
    }

    std::size_t
    findSlot(std::uint64_t key) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t i = homeSlot(key);
        while (keys_[i] != kEmptyKey) {
            if (keys_[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNoSlot;
    }

    void
    grow()
    {
        std::vector<std::uint64_t> old_keys(keys_.size() * 2,
                                            kEmptyKey);
        old_keys.swap(keys_);
        std::unique_ptr<V[]> old_vals =
            std::make_unique_for_overwrite<V[]>(keys_.size());
        old_vals.swap(vals_);
        const std::size_t mask = keys_.size() - 1;
        for (std::size_t s = 0; s < old_keys.size(); ++s) {
            if (old_keys[s] == kEmptyKey)
                continue;
            std::size_t i = homeSlot(old_keys[s]);
            while (keys_[i] != kEmptyKey)
                i = (i + 1) & mask;
            keys_[i] = old_keys[s];
            vals_[i] = old_vals[s];
        }
    }

    std::size_t size_ = 0;
    std::vector<std::uint64_t> keys_;
    std::unique_ptr<V[]> vals_;
};

/**
 * Keys of an associative container in ascending order — the
 * deterministic way to iterate an unordered_map whose visit order is
 * observable (NVM write sequencing, log streaming, trace emission).
 * The harvest loop itself is order-insensitive; callers then index
 * the container by sorted key.
 */
template <typename Set>
std::vector<typename Set::key_type>
sortedValues(const Set &s)
{
    std::vector<typename Set::key_type> vals;
    vals.reserve(s.size());
    // lint: unordered-iter-ok (order-insensitive harvest; callers iterate the sorted result)
    for (const auto &v : s)
        vals.push_back(v);
    std::sort(vals.begin(), vals.end());
    return vals;
}

template <typename Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    // lint: unordered-iter-ok (order-insensitive key harvest; callers iterate the sorted result)
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace hoopnvm

#endif // HOOPNVM_COMMON_FLAT_MAP_HH
