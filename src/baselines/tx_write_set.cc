#include "baselines/tx_write_set.hh"

#include <algorithm>

namespace hoopnvm
{

void
LineImage::overlay(std::uint8_t *buf) const
{
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        if (mask & (1u << i))
            std::memcpy(buf + i * kWordSize, &words[i], kWordSize);
    }
}

void
LineImage::merge(const LineImage &other)
{
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        if (other.mask & (1u << i))
            setWord(i, other.words[i]);
    }
}

void
TxWriteSet::clear()
{
    for (Staged &s : cores_)
        s.clear();
}

const TxWriteSet::Lines &
TxWriteSet::sortedLines(CoreId core)
{
    Staged &s = cores_[core];
    std::sort(s.lines.begin(), s.lines.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    // A rejected commit leaves its transaction open, and later fills
    // still overlay its lines, so the index follows the new positions.
    for (std::size_t i = 0; i < s.lines.size(); ++i)
        *s.index.find(s.lines[i].first) = static_cast<std::uint32_t>(i);
    return s.lines;
}

bool
TxWriteSet::contains(Addr line) const
{
    for (const Staged &s : cores_) {
        if (s.index.contains(line))
            return true;
    }
    return false;
}

std::size_t
TxWriteSet::size() const
{
    std::size_t n = 0;
    for (const Staged &s : cores_)
        n += s.lines.size();
    return n;
}

std::uint8_t
TxWriteSet::overlay(Addr line, std::uint8_t *buf, TxId *owner) const
{
    std::uint8_t mask = 0;
    for (const Staged &s : cores_) {
        const std::uint32_t *pos = s.index.find(line);
        if (!pos)
            continue;
        const LineImage &img = s.lines[*pos].second;
        img.overlay(buf);
        mask |= img.mask;
        if (owner)
            *owner = s.owner;
    }
    return mask;
}

void
TxWriteSet::overlayFill(Addr line, std::uint8_t *buf, FillResult &fr,
                        std::uint8_t mask) const
{
    TxId owner = kInvalidTxId;
    mask |= overlay(line, buf, &owner);
    if (mask) {
        fr.dirty = true;
        fr.persistent = true;
        fr.txId = owner;
        fr.wordMask = mask;
    }
}

} // namespace hoopnvm
