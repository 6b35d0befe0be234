#include "mem/cache.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/hash.hh"
#include "common/logging.hh"

namespace hoopnvm
{

Cache::Cache(const std::string &name, std::uint64_t size_bytes,
             unsigned assoc_, Tick latency, Cache *home)
    : assoc(assoc_), latency_(latency), stats_(name),
      hitsC_(stats_.counter("hits")),
      missesC_(stats_.counter("misses")),
      insertionsC_(stats_.counter("insertions")),
      dirtyEvictionsC_(stats_.counter("dirty_evictions")),
      cleanEvictionsC_(stats_.counter("clean_evictions"))
{
    HOOP_ASSERT(assoc > 0, "associativity must be positive");
    HOOP_ASSERT(size_bytes % (assoc * kCacheLineSize) == 0,
                "cache size not a multiple of assoc * line size");
    numSets_ = static_cast<unsigned>(
        size_bytes / (assoc * kCacheLineSize));
    HOOP_ASSERT(numSets_ > 0, "cache must have at least one set");
    HOOP_ASSERT((numSets_ & (numSets_ - 1)) == 0,
                "cache %s: set count %u is not a power of two",
                name.c_str(), numSets_);
    setMask_ = numSets_ - 1;
    numWays_ = static_cast<std::size_t>(numSets_) * assoc;
    tags_ = zeroedArray<Addr>(numWays_);
    lastUse_ = zeroedArray<std::uint64_t>(numWays_);
    meta_ = zeroedArray<CacheLineMeta>(numWays_);
    if (home) {
        HOOP_ASSERT(home->sharers_, "cache %s: its home is itself private",
                    name.c_str());
        homeWay_ = zeroedArray<std::uint32_t>(numWays_);
        payload_ = home->data_.get();
    } else {
        HOOP_ASSERT(numWays_ <= ~std::uint32_t{0},
                    "cache %s: too many ways to index", name.c_str());
        data_ = std::make_unique_for_overwrite<std::uint8_t[]>(
            numWays_ * kCacheLineSize);
        sharers_ = zeroedArray<std::uint32_t>(numWays_);
        payload_ = data_.get();
    }
}

template <typename T>
std::unique_ptr<T[], Cache::FreeArray>
Cache::zeroedArray(std::size_t n)
{
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_default_constructible_v<T>);
    void *p = std::calloc(n, sizeof(T));
    HOOP_ASSERT(p != nullptr, "cache array allocation failed");
    return std::unique_ptr<T[], FreeArray>(static_cast<T *>(p));
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    // Mix the address so power-of-two strides do not alias
    // pathologically. The set count is a power of two, so the mask
    // picks the same set a modulo would, without a 64-bit divide.
    return static_cast<unsigned>(mixHash(line_addr / kCacheLineSize) &
                                 setMask_);
}

CacheLine
Cache::probe(Addr line_addr)
{
    HOOP_ASSERT(isAligned(line_addr, kCacheLineSize),
                "probe of unaligned line address");
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * assoc;
    const Addr tag = tagOf(line_addr);
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags_[base + w] == tag) {
            lastUse_[base + w] = ++useClock;
            ++hitsC_;
            return viewOf(base + w);
        }
    }
    ++missesC_;
    return {};
}

CacheLine
Cache::peekLine(Addr line_addr) const
{
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * assoc;
    const Addr tag = tagOf(line_addr);
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags_[base + w] == tag)
            return viewOf(base + w);
    }
    return {};
}

std::size_t
Cache::findVictim(Addr line_addr)
{
    HOOP_ASSERT(isAligned(line_addr, kCacheLineSize),
                "insert of unaligned line address");
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * assoc;

    // One fused scan finds an existing copy, a free way, or the LRU
    // victim. Invalidation zeroes lastUse and valid lines always carry
    // lastUse >= 1 (fillSlot/touch assign ++useClock), so the min-
    // lastUse way IS the first invalid way whenever one exists — the
    // same choice the previous separate invalid-scan + LRU-scan pair
    // made (strict < keeps the lowest index on ties, exactly like the
    // old first-invalid preference).
    const Addr tag = tagOf(line_addr);
    std::size_t victim = base;
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags_[base + w] == tag)
            return base + w;
        if (lastUse_[base + w] < lastUse_[victim])
            victim = base + w;
    }
    if (tags_[victim] != kInvalidTag) {
        if (meta_[victim].dirty)
            ++dirtyEvictionsC_;
        else
            ++cleanEvictionsC_;
    }
    return victim;
}

void
Cache::fillSlot(std::size_t i, Addr line_addr, bool dirty,
                bool persistent, CoreId writer, TxId tx_id,
                std::uint8_t word_mask)
{
    CacheLineMeta &m = meta_[i];
    const bool reinsert = tags_[i] == tagOf(line_addr);
    tags_[i] = tagOf(line_addr);
    m.dirty = reinsert ? (m.dirty || dirty) : dirty;
    m.persistent = reinsert ? (m.persistent || persistent) : persistent;
    m.wordMask = reinsert ? (m.wordMask | word_mask) : word_mask;
    if (!reinsert || dirty) {
        m.lastWriter = writer;
        m.txId = tx_id;
    }
    lastUse_[i] = ++useClock;
    ++insertionsC_;
}

void
Cache::writeBack(Addr line_addr, std::uint32_t slot, bool persistent,
                 CoreId writer, TxId tx_id, std::uint8_t word_mask)
{
    HOOP_ASSERT(tags_[slot] == tagOf(line_addr),
                "write-back of line %#llx: its home way holds another "
                "line",
                static_cast<unsigned long long>(line_addr));
    fillSlot(slot, line_addr, true, persistent, writer, tx_id, word_mask);
}

CacheVictim
Cache::insert(Addr line_addr, const std::uint8_t *data, bool dirty,
              bool persistent, CoreId writer, TxId tx_id,
              std::uint8_t word_mask)
{
    CacheVictim victim;
    insert(line_addr, data, dirty, persistent, writer, tx_id, word_mask,
           [this, &victim](const CacheLine &lru) {
               victim.valid = true;
               victim.addr = lru.addr();
               victim.dirty = lru.dirty();
               victim.persistent = lru.persistent();
               victim.lastWriter = lru.lastWriter();
               victim.txId = lru.txId();
               victim.wordMask = lru.wordMask();
               victim.home = lru.home();
               victim.sharers = sharers_[lru.home()];
               std::memcpy(victim.data.data(), lru.data(),
                           kCacheLineSize);
           });
    return victim;
}

void
Cache::invalidate(Addr line_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * assoc;
    const Addr tag = tagOf(line_addr);
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags_[base + w] == tag) {
            // Only the tag and the stamp change: nothing reads an
            // invalid way's metadata, and the next fill rewrites it.
            tags_[base + w] = kInvalidTag;
            // Zero stamp ranks invalid ways first in findVictim.
            lastUse_[base + w] = 0;
            return;
        }
    }
}

void
Cache::invalidateAll()
{
    std::fill_n(tags_.get(), numWays_, kInvalidTag);
    std::fill_n(lastUse_.get(), numWays_, 0);
}

} // namespace hoopnvm
