#include "baselines/tx_write_set.hh"

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
    for (Lines &l : lines_)
        l.clear();
}

bool
TxWriteSet::contains(Addr line) const
{
    for (const Lines &l : lines_) {
        if (l.contains(line))
            return true;
    }
    return false;
}

std::size_t
TxWriteSet::size() const
{
    std::size_t n = 0;
    for (const Lines &l : lines_)
        n += l.size();
    return n;
}

std::uint8_t
TxWriteSet::overlay(Addr line, std::uint8_t *buf, TxId *owner) const
{
    std::uint8_t mask = 0;
    for (std::size_t c = 0; c < lines_.size(); ++c) {
        const auto it = lines_[c].find(line);
        if (it == lines_[c].end())
            continue;
        it->second.overlay(buf);
        mask |= it->second.mask;
        if (owner)
            *owner = owner_[c];
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
