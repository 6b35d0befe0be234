#include "hoop/eviction_buffer.hh"

#include <cstring>

#include "common/logging.hh"

namespace hoopnvm
{

EvictionBuffer::EvictionBuffer(std::uint64_t bytes)
    : entries(static_cast<std::size_t>(bytes / kEntryBytes))
{
    HOOP_ASSERT(!entries.empty(), "eviction buffer too small");
    index.reserve(entries.size());
}

void
EvictionBuffer::put(Addr line, const std::uint8_t *data)
{
    auto it = index.find(line);
    if (it != index.end()) {
        std::memcpy(entries[it->second].data.data(), data,
                    kCacheLineSize);
        return;
    }
    Entry &e = entries[nextSlot];
    if (e.valid)
        index.erase(e.addr);
    e.valid = true;
    e.addr = line;
    std::memcpy(e.data.data(), data, kCacheLineSize);
    index[line] = nextSlot;
    nextSlot = (nextSlot + 1) % entries.size();
}

bool
EvictionBuffer::get(Addr line, std::uint8_t *out) const
{
    auto it = index.find(line);
    if (it == index.end())
        return false;
    std::memcpy(out, entries[it->second].data.data(), kCacheLineSize);
    return true;
}

void
EvictionBuffer::invalidate(Addr line)
{
    auto it = index.find(line);
    if (it == index.end())
        return;
    entries[it->second].valid = false;
    entries[it->second].addr = kInvalidAddr;
    index.erase(it);
}

void
EvictionBuffer::clear()
{
    for (auto &e : entries)
        e = Entry{};
    index.clear();
    nextSlot = 0;
}

} // namespace hoopnvm
