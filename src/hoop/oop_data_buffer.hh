/**
 * @file
 * Per-core OOP data buffer (paper §III-C).
 *
 * Each core owns a small staging buffer in the memory controller
 * (1 KB in the paper). Transactional stores deposit updated words here at
 * word granularity; when eight words are packed the controller flushes
 * them to the OOP region as one memory slice (data packing, Fig. 3).
 * Repeated updates to the same word within the assembling slice are
 * combined in place, which is where much of HOOP's write-traffic
 * saving on metadata-heavy workloads comes from.
 */

#ifndef HOOPNVM_HOOP_OOP_DATA_BUFFER_HH
#define HOOPNVM_HOOP_OOP_DATA_BUFFER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "hoop/memory_slice.hh"

namespace hoopnvm
{

/** Words being packed into the next memory slice of one core. */
struct PendingSlice
{
    std::uint8_t count = 0;
    std::array<std::uint64_t, MemorySlice::kMaxWords> words{};
    std::array<Addr, MemorySlice::kMaxWords> addrs{};
};

/** The controller's per-core word-packing stage. */
class OopDataBuffer
{
  public:
    /**
     * @param n_cores      Number of per-core buffer entries.
     * @param data_packing When false (ablation), every word is emitted
     *                     as its own slice — modelling a controller
     *                     without data packing.
     */
    OopDataBuffer(unsigned n_cores, bool data_packing)
        : pending(n_cores), packing(data_packing)
    {
    }

    /**
     * Deposit one updated word for @p core's running transaction.
     * @return true when the assembling slice is now full and must be
     *         flushed by the caller.
     */
    bool addWord(CoreId core, Addr word_addr, std::uint64_t value);

    /** True if @p core has words awaiting a flush. */
    bool hasPending(CoreId core) const;

    /** Remove and return @p core's assembling slice. */
    PendingSlice take(CoreId core);

    /** Discard @p core's assembling slice (crash model). */
    void clear(CoreId core);

    /** Discard every core's state (crash model). */
    void clearAll();

    /** Words combined into an already-buffered slot so far. */
    std::uint64_t combinedWords() const { return combinedWords_; }

  private:
    std::vector<PendingSlice> pending;
    bool packing;
    std::uint64_t combinedWords_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_OOP_DATA_BUFFER_HH
