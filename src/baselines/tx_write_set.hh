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
#include <utility>
#include <vector>

#include "common/flat_map.hh"
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

/**
 * Per-core words staged by each core's open transaction. Each core
 * keeps its staged lines in a vector, in staging order, behind an
 * open-addressed index from line address to position, so staging a
 * new line allocates nothing once the vector has grown, and closing
 * the transaction frees nothing.
 */
class TxWriteSet
{
  public:
    /** A core's staged lines with their images. */
    using Lines = std::vector<std::pair<Addr, LineImage>>;

    explicit TxWriteSet(unsigned cores) : cores_(cores) {}

    /** Open @p core's transaction @p tx with nothing staged. */
    void
    begin(CoreId core, TxId tx)
    {
        cores_[core].clear();
        cores_[core].owner = tx;
    }

    /** Drop @p core's staged words (its transaction closed). */
    void end(CoreId core) { cores_[core].clear(); }

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
        Staged &s = cores_[core];
        const std::size_t known = s.index.size();
        std::uint32_t &pos = s.index[line];
        const bool first = s.index.size() != known;
        if (first) {
            pos = static_cast<std::uint32_t>(s.lines.size());
            s.lines.emplace_back(line, LineImage{});
        }
        s.lines[pos].second.setWord(
            static_cast<unsigned>((addr - line) / kWordSize), value);
        return first;
    }

    /** True when @p core's transaction staged a word of @p line. */
    bool
    staged(CoreId core, Addr line) const
    {
        return cores_[core].index.contains(line);
    }

    /**
     * @p core's staged lines in ascending address order, the order in
     * which every baseline's commit writes them: log-append, flush and
     * drain order are observable durable state. Sorts the core's
     * lines in place; every lookup stays valid.
     */
    const Lines &sortedLines(CoreId core);

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
    /** One core's open transaction and the lines it staged. */
    struct Staged
    {
        Lines lines;

        /** Line address -> position in lines. */
        FlatMap<std::uint32_t> index;

        TxId owner = kInvalidTxId;

        void
        clear()
        {
            lines.clear();
            index.clear();
        }
    };

    std::vector<Staged> cores_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_TX_WRITE_SET_HH
