/**
 * @file
 * Line-granularity coalescing of slice words, shared by GC (Algorithm
 * 1's scan) and recovery (the replay overlay).
 *
 * Every word a slice carries lands in an accumulator for its home
 * line (8 seq/value pairs plus a presence mask) in an open-addressed
 * map. Per word, the highest slice sequence number wins, so each line
 * holds the newest version of every word the added slices touched.
 * sorted() hands the lines out in ascending line-address order, the
 * order in which both callers write them home (and so the order of
 * their crash points).
 */

#ifndef HOOPNVM_HOOP_LINE_COALESCER_HH
#define HOOPNVM_HOOP_LINE_COALESCER_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "hoop/memory_slice.hh"

namespace hoopnvm
{

/** Per-line, per-word max-seq-wins merge of slice words. */
class LineCoalescer
{
  public:
    /** The winning versions of one home line. Slice seqs start at 1,
     *  so seqs[w] == 0 means "no update to word w". */
    struct Line
    {
        std::uint64_t seqs[kWordsPerLine];
        std::uint64_t vals[kWordsPerLine];
        std::uint8_t mask;

        /** Words present in the line. */
        unsigned words() const { return std::popcount(mask); }

        /** Highest sequence number among the present words. */
        std::uint64_t
        maxSeq() const
        {
            std::uint64_t m = 0;
            for (std::size_t w = 0; w < kWordsPerLine; ++w) {
                if (mask & (1u << w))
                    m = std::max(m, seqs[w]);
            }
            return m;
        }

        /** Overwrite the present words of the home line image @p buf. */
        void
        overlay(std::uint8_t *buf) const
        {
            for (std::size_t w = 0; w < kWordsPerLine; ++w) {
                if (mask & (1u << w))
                    std::memcpy(buf + w * kWordSize, &vals[w], kWordSize);
            }
        }
    };

    /** Fold every word of @p s in; on equal seqs the later add wins. */
    void
    add(const MemorySlice &s)
    {
        for (unsigned i = 0; i < s.count; ++i) {
            const Addr a = s.homeAddrs[i];
            const Addr la = lineAddr(a);
            // Packing fills slices with adjacent words, so successive
            // words usually hit the same line: the memo skips the
            // probe. The pointer stays valid until the table grows,
            // which only a new-line insert does — exactly when the
            // memo refreshes.
            if (la != memoLine_) {
                memo_ = &lines_[la];
                memoLine_ = la;
            }
            Line &g = *memo_;
            const unsigned w = static_cast<unsigned>((a - la) / kWordSize);
            if (s.seq >= g.seqs[w]) {
                g.seqs[w] = s.seq;
                g.vals[w] = s.words[i];
                g.mask |= static_cast<std::uint8_t>(1u << w);
            }
        }
    }

    /**
     * The accumulated lines with their addresses, ascending. A sorted
     * copy lets the write-home loop stream through an array instead
     * of re-probing a table far larger than the host LLC per line.
     */
    std::vector<std::pair<Addr, Line>>
    sorted() const
    {
        std::vector<std::pair<Addr, Line>> out;
        out.reserve(lines_.size());
        lines_.forEach(
            [&](Addr line, const Line &g) { out.emplace_back(line, g); });
        std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
            return a.first < b.first;
        });
        return out;
    }

  private:
    FlatMap<Line> lines_;
    Addr memoLine_ = kInvalidAddr;
    Line *memo_ = nullptr;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_LINE_COALESCER_HH
