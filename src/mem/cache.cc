#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "common/hash.hh"
#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/** Every nibble set to 1: times a way, that way in every nibble. */
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;

/**
 * Position of way @p way in recency word @p r, which lists it: the
 * lowest nibble equal to it. (x - ones) & ~x flags a zero nibble of x
 * in its top bit; a borrow can flag a nonzero nibble too, but only
 * above a zero one, so the lowest flag is exact.
 */
unsigned
listPosition(std::uint64_t r, unsigned way)
{
    const std::uint64_t x = r ^ (kNibbleOnes * way);
    const std::uint64_t zero = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
    return static_cast<unsigned>(std::countr_zero(zero)) / 4;
}

/** Mask of the nibbles at positions @p pos and above. */
std::uint64_t
nibblesFrom(unsigned pos)
{
    // Two shifts, so that pos == 16 gives 0 rather than a shift by 64.
    return (~std::uint64_t{0} << (2 * pos)) << (2 * pos);
}

} // namespace

Cache::Cache(const std::string &name, std::uint64_t size_bytes,
             unsigned assoc_, Tick latency, Cache *home)
    : assoc(assoc_), latency_(latency), stats_(name),
      hitsC_(stats_.counter("hits")),
      missesC_(stats_.counter("misses")),
      insertionsC_(stats_.counter("insertions")),
      dirtyEvictionsC_(stats_.counter("dirty_evictions")),
      cleanEvictionsC_(stats_.counter("clean_evictions"))
{
    HOOP_ASSERT(std::has_single_bit(assoc) && assoc <= kMaxAssoc,
                "cache %s: associativity %u is not a power of two up to %u",
                name.c_str(), assoc, kMaxAssoc);
    assocShift_ = static_cast<unsigned>(std::countr_zero(assoc));
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
    meta_ = zeroedArray<CacheLineMeta>(numWays_);
    recency_ = zeroedArray<std::uint64_t>(numSets_);
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
            touch(base + w);
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

    // One scan finds an existing copy or the lowest invalid way. A
    // full set gives up the last way its recency word lists.
    const Addr tag = tagOf(line_addr);
    std::size_t free_way = numWays_;
    for (unsigned w = 0; w < assoc; ++w) {
        if (tags_[base + w] == tag)
            return base + w;
        if (tags_[base + w] == kInvalidTag && free_way == numWays_)
            free_way = base + w;
    }
    if (free_way != numWays_)
        return free_way;
    const std::size_t victim =
        base + ((recency_[base >> assocShift_] >> (4 * (assoc - 1))) & 0xf);
    if (meta_[victim].dirty)
        ++dirtyEvictionsC_;
    else
        ++cleanEvictionsC_;
    return victim;
}

std::uint64_t
Cache::promoted(std::uint64_t r, unsigned way)
{
    const unsigned pos = listPosition(r, way);
    // The ways listed before it move one place down; those after stay.
    return (r & nibblesFrom(pos + 1)) | ((r & ~nibblesFrom(pos)) << 4) |
           way;
}

void
Cache::fillSlot(std::size_t i, Addr line_addr, const CacheLineMeta &state)
{
    if (tags_[i] == kInvalidTag) {
        // A newly valid way goes to the front of the list; the set
        // had a free way, so the top nibble shifted out is zero.
        std::uint64_t &r = recency_[i >> assocShift_];
        r = (r << 4) | (i & (assoc - 1));
    } else {
        touch(i);
    }
    if (tags_[i] == tagOf(line_addr)) {
        meta_[i].merge(state);
    } else {
        tags_[i] = tagOf(line_addr);
        meta_[i] = state;
    }
    ++insertionsC_;
}

void
Cache::writeBack(Addr line_addr, std::uint32_t slot,
                 const CacheLineMeta &state)
{
    HOOP_ASSERT(tags_[slot] == tagOf(line_addr),
                "write-back of line %#llx: its home way holds another "
                "line",
                static_cast<unsigned long long>(line_addr));
    fillSlot(slot, line_addr, state);
}

CacheVictim
Cache::insert(Addr line_addr, const std::uint8_t *data,
              const CacheLineMeta &state)
{
    CacheVictim victim;
    insert(line_addr, data, state, [&victim](const CacheLine &lru) {
        victim.valid = true;
        victim.addr = lru.addr();
        victim.state = lru.state();
        victim.home = lru.home();
        std::memcpy(victim.data.data(), lru.data(), kCacheLineSize);
    });
    return victim;
}

void
Cache::invalidate(const CacheLine &line)
{
    if (!line)
        return;
    const std::size_t i = static_cast<std::size_t>(line.meta_ - meta_.get());
    HOOP_ASSERT(i < numWays_ && tags_[i] == tagOf(line.addr()),
                "invalidate of a line this cache does not hold");
    // Only the tag and the recency list change: nothing reads an
    // invalid way's metadata, and the next fill rewrites it.
    tags_[i] = kInvalidTag;
    std::uint64_t &r = recency_[i >> assocShift_];
    const unsigned pos =
        listPosition(r, static_cast<unsigned>(i & (assoc - 1)));
    r = (r & ~nibblesFrom(pos)) | ((r & nibblesFrom(pos + 1)) >> 4);
}

void
Cache::invalidateAll()
{
    std::fill_n(tags_.get(), numWays_, kInvalidTag);
    std::fill_n(recency_.get(), numSets_, 0);
}

} // namespace hoopnvm
