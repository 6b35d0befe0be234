/**
 * @file
 * Line-granularity coalescing of slice words, shared by GC (Algorithm
 * 1's scan) and recovery (the replay overlay).
 *
 * Every word a slice carries lands in an accumulator for its home
 * line (8 seq/value pairs plus a presence mask). The accumulators sit
 * in a vector, in first-touch order, behind an open-addressed map of
 * 4-byte positions, so growing the map rehashes positions, not
 * accumulators. Per word, the highest slice sequence number wins, so
 * each line holds the newest version of every word the added slices
 * touched. sorted() hands the lines out in ascending line-address
 * order, the order in which both callers write them home (and so the
 * order of their crash points).
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
            // probe.
            if (la != memoLine_) {
                const std::size_t known = index_.size();
                std::uint32_t &pos = index_[la];
                if (index_.size() != known) {
                    pos = static_cast<std::uint32_t>(lines_.size());
                    lines_.push_back(Line{});
                }
                memo_ = pos;
                memoLine_ = la;
            }
            Line &g = lines_[memo_];
            const unsigned w = static_cast<unsigned>((a - la) / kWordSize);
            if (s.seq >= g.seqs[w]) {
                g.seqs[w] = s.seq;
                g.vals[w] = s.words[i];
                g.mask |= static_cast<std::uint8_t>(1u << w);
            }
        }
    }

    /**
     * Every accumulated line's address and position (see line()),
     * ascending by address. The write-home loop then streams through
     * an array instead of re-probing a table far larger than the host
     * LLC per line, and the sort moves 16-byte pairs, not
     * accumulators.
     */
    std::vector<std::pair<Addr, std::uint32_t>>
    sorted() const
    {
        std::vector<std::pair<Addr, std::uint32_t>> out;
        out.reserve(index_.size());
        index_.forEach([&](Addr line, std::uint32_t pos) {
            out.emplace_back(line, pos);
        });
        std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
            return a.first < b.first;
        });
        return out;
    }

    /** The accumulator at position @p pos. */
    const Line &line(std::uint32_t pos) const { return lines_[pos]; }

  private:
    std::vector<Line> lines_;

    /** Line address -> position in lines_. */
    FlatMap<std::uint32_t> index_;

    Addr memoLine_ = kInvalidAddr;
    std::uint32_t memo_ = 0;
};

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_LINE_COALESCER_HH
