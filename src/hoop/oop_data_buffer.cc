#include "hoop/oop_data_buffer.hh"

#include "common/logging.hh"

namespace hoopnvm
{

bool
OopDataBuffer::addWord(CoreId core, Addr word_addr, std::uint64_t value)
{
    HOOP_ASSERT(core < pending.size(), "unknown core %u", core);
    HOOP_ASSERT(isAligned(word_addr, kWordSize),
                "unaligned word into OOP data buffer");
    PendingSlice &p = pending[core];

    if (packing) {
        // Combine a repeated update to the same word in place.
        for (unsigned i = 0; i < p.count; ++i) {
            if (p.addrs[i] == word_addr) {
                p.words[i] = value;
                ++combinedWords_;
                return false;
            }
        }
    }

    HOOP_ASSERT(p.count < MemorySlice::kMaxWords,
                "assembling slice overflow");
    p.addrs[p.count] = word_addr;
    p.words[p.count] = value;
    ++p.count;

    // Without packing each word ships as its own slice immediately.
    const unsigned full_at = packing ? MemorySlice::kMaxWords : 1;
    return p.count >= full_at;
}

bool
OopDataBuffer::hasPending(CoreId core) const
{
    return pending[core].count > 0;
}

PendingSlice
OopDataBuffer::take(CoreId core)
{
    PendingSlice out = pending[core];
    pending[core] = PendingSlice{};
    return out;
}

void
OopDataBuffer::clear(CoreId core)
{
    pending[core] = PendingSlice{};
}

void
OopDataBuffer::clearAll()
{
    for (auto &p : pending)
        p = PendingSlice{};
}

} // namespace hoopnvm
