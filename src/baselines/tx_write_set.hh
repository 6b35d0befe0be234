/**
 * @file
 * The staged write set all five baselines keep for open transactions.
 *
 * Every baseline stages each core's transactional words in the memory
 * controller until commit: Opt-Redo and LSM log them, Opt-Undo flushes
 * them in place, OSP writes them to the inactive copy and LAD drains
 * them through its persistent queues. Until then the set is the only
 * copy of the newest words, so LLC fills and debug reads overlay it,
 * and a power failure discards it.
 */

#ifndef HOOPNVM_BASELINES_TX_WRITE_SET_HH
#define HOOPNVM_BASELINES_TX_WRITE_SET_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "controller/persistence_controller.hh"

namespace hoopnvm
{

/** Buffered image of one line touched by a transaction. */
struct LineImage
{
    std::uint8_t mask = 0;
    std::array<std::uint64_t, kWordsPerLine> words{};

    void
    setWord(unsigned idx, std::uint64_t v)
    {
        words[idx] = v;
        mask |= static_cast<std::uint8_t>(1u << idx);
    }

    /** Overlay this image's valid words onto @p buf (a full line). */
    void overlay(std::uint8_t *buf) const;

    /** Merge @p other on top of this image. */
    void merge(const LineImage &other);
};

/** Per-core words staged by each core's open transaction. */
class TxWriteSet
{
  public:
    using Lines = std::unordered_map<Addr, LineImage>;

    explicit TxWriteSet(unsigned cores)
        : lines_(cores), owner_(cores, kInvalidTxId)
    {
    }

    /** Open @p core's transaction @p tx with nothing staged. */
    void
    begin(CoreId core, TxId tx)
    {
        lines_[core].clear();
        owner_[core] = tx;
    }

    /** Drop @p core's staged words (its transaction closed). */
    void end(CoreId core) { lines_[core].clear(); }

    /** Drop every core's staged words (power failure). */
    void clear();

    /**
     * Stage the word at @p addr of @p core's transaction.
     * @return True when it is the first staged word of its line.
     */
    bool
    stage(CoreId core, Addr addr, const std::uint8_t *data)
    {
        std::uint64_t value;
        std::memcpy(&value, data, kWordSize);
        const Addr line = lineAddr(addr);
        const auto [it, first] = lines_[core].try_emplace(line);
        it->second.setWord(
            static_cast<unsigned>((addr - line) / kWordSize), value);
        return first;
    }

    /** @p core's staged lines. */
    const Lines &lines(CoreId core) const { return lines_[core]; }

    /** True when any open transaction staged a word of @p line. */
    bool contains(Addr line) const;

    /** Staged lines over all cores. */
    std::size_t size() const;

    /**
     * Overlay every core's staged words of @p line onto @p buf (a full
     * line), cores in ascending order.
     * @param owner When non-null and a core staged the line, receives
     *              the transaction of the last such core.
     * @return The staged words' mask.
     */
    std::uint8_t overlay(Addr line, std::uint8_t *buf,
                         TxId *owner = nullptr) const;

    /**
     * overlay() for an LLC fill: when any word of the filled line is
     * newer than its source, the line fills dirty and persistent,
     * owned by the staging transaction. @p mask holds words the caller
     * already overlaid from elsewhere (LSM's live images).
     */
    void overlayFill(Addr line, std::uint8_t *buf, FillResult &fr,
                     std::uint8_t mask = 0) const;

  private:
    std::vector<Lines> lines_;
    std::vector<TxId> owner_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_TX_WRITE_SET_HH
