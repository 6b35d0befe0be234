/**
 * @file
 * Incremental min/max tracking over a fixed set of per-core clocks.
 *
 * The engine needs two queries on every transaction boundary: the
 * slowest core (minClock() drives maintenance time and next-core
 * selection) and the fastest core (maxClock() stamps measurement
 * windows and crash instants). Scanning all cores is O(P) per query;
 * this tracker answers both in O(1) from a pair of tournament trees
 * and absorbs clock updates in O(1) by deferring tree repair to the
 * next query (a dirty list, repaired in O(log P) per dirty slot).
 *
 * Tie-breaking matters: argMin() returns the *lowest-indexed* slot
 * holding the minimum, matching a scan ("first core with a strictly
 * smaller clock wins"), so the workload driver picks the core a scan
 * would pick — clock_tracker_test.cc asserts this on randomized
 * sequences.
 */

#ifndef HOOPNVM_SIM_CLOCK_TRACKER_HH
#define HOOPNVM_SIM_CLOCK_TRACKER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hoopnvm
{

/** Lazily-synced min/max tournament trees over @c n clock slots. */
class ClockTracker
{
  public:
    /** All @p n slots start at clock 0 and enabled. */
    explicit ClockTracker(std::size_t n)
        : n_(n), base_(leafBase(n)),
          minTree_(2 * base_, kNeverTick), maxTree_(2 * base_, 0),
          pendMin_(n, 0), pendMax_(n, 0), dirty_(n, 0)
    {
        for (std::size_t i = 0; i < n_; ++i)
            minTree_[base_ + i] = 0;
        for (std::size_t node = base_; node-- > 1;) {
            minTree_[node] =
                std::min(minTree_[2 * node], minTree_[2 * node + 1]);
        }
        dirtyList_.reserve(n_);
    }

    std::size_t size() const { return n_; }

    /** Record clock @p v for slot @p i; O(1), folded in on query. */
    void
    set(std::size_t i, Tick v)
    {
        pendMin_[i] = v;
        pendMax_[i] = v;
        markDirty(i);
    }

    /**
     * Remove slot @p i from both competitions (a finished core): it
     * can no longer win argMin()/min() and contributes 0 to max().
     */
    void
    disable(std::size_t i)
    {
        pendMin_[i] = kNeverTick;
        pendMax_[i] = 0;
        markDirty(i);
    }

    /** Smallest enabled clock (kNeverTick if all slots disabled). */
    Tick
    min() const
    {
        sync();
        return minTree_[1];
    }

    /** Largest enabled clock (0 if all slots disabled). */
    Tick
    max() const
    {
        sync();
        return maxTree_[1];
    }

    /** Lowest-indexed slot holding min(); only valid when one is
     *  enabled. */
    std::size_t
    argMin() const
    {
        sync();
        std::size_t node = 1;
        while (node < base_) {
            node = 2 * node;
            if (minTree_[node] > minTree_[node + 1])
                ++node;
        }
        return node - base_;
    }

  private:
    static std::size_t
    leafBase(std::size_t n)
    {
        std::size_t b = 1;
        while (b < n)
            b *= 2;
        return b;
    }

    void
    markDirty(std::size_t i)
    {
        if (!dirty_[i]) {
            dirty_[i] = 1;
            dirtyList_.push_back(static_cast<std::uint32_t>(i));
        }
    }

    /** Fold pending leaf updates into both trees. */
    void
    sync() const
    {
        for (const std::uint32_t i : dirtyList_) {
            dirty_[i] = 0;
            std::size_t node = base_ + i;
            minTree_[node] = pendMin_[i];
            maxTree_[node] = pendMax_[i];
            for (node /= 2; node >= 1; node /= 2) {
                minTree_[node] = std::min(minTree_[2 * node],
                                          minTree_[2 * node + 1]);
                maxTree_[node] = std::max(maxTree_[2 * node],
                                          maxTree_[2 * node + 1]);
            }
        }
        dirtyList_.clear();
    }

    std::size_t n_;
    std::size_t base_; ///< Leaf @c i lives at tree index base_ + i.

    // Queries are logically const: the trees are a cache of the
    // pending leaf values, repaired on read.
    mutable std::vector<Tick> minTree_;
    mutable std::vector<Tick> maxTree_;
    std::vector<Tick> pendMin_;
    std::vector<Tick> pendMax_;
    mutable std::vector<std::uint8_t> dirty_;
    mutable std::vector<std::uint32_t> dirtyList_;
};

} // namespace hoopnvm

#endif // HOOPNVM_SIM_CLOCK_TRACKER_HH
