/**
 * @file
 * A single set-associative, write-back cache with LRU replacement.
 * Each set keeps its recency in one 64-bit word that lists the set's
 * valid ways, most recent first, four bits each; so a set has at most
 * 16 ways, and the associativity is a power of two.
 *
 * Lines carry the usual valid/dirty state plus the HOOP *persistent bit*
 * (§III-G of the paper): one bit per cache line marking lines modified
 * inside a failure-atomic region, so the eviction path can route them to
 * the OOP region instead of the home region. Lines also remember the
 * last writing core and the transaction that last modified them, which
 * the memory-controller models need to stamp out-of-place slices.
 *
 * A cache plays one of two roles. A *home* cache (the shared inclusive
 * LLC, or any standalone cache) keeps each line's 64-byte payload and
 * a sharer mask: the cores whose private caches hold the line. A
 * *private* cache (an L1 or L2) is built over a home cache and keeps
 * no payload: each of its ways names the home way of its line, and
 * loads and stores go through to those bytes. So a line has one copy
 * of its bytes however many levels hold it; every level keeps its own
 * tag, recency and state (dirty, persistent, word mask, writer,
 * transaction).
 *
 * Storage is structure-of-arrays: the set-lookup scan walks a packed
 * tag array (one 8-byte tag per way, so an 8-way set is a single host
 * cache line), while per-line metadata, home-way indices, sharer masks
 * and payloads live in separate arrays touched only on a hit.
 * CacheLine is a non-owning *view* into those arrays, not the storage
 * itself; views are cheap to copy and remain valid until the way they
 * reference (or, for a private line, its home way) is re-filled or
 * invalidated.
 *
 * Building a cache writes none of its arrays. The tag, recency,
 * metadata, home-way and sharer arrays come zeroed from calloc, an
 * all-zero way is invalid (tags are stored complemented, so the zero
 * tag is ~kInvalidAddr), and a zero recency word lists no way. The
 * payload array is left uninitialized. No code reads an invalid way's
 * metadata, home way, sharer mask or payload, and a fill writes every
 * one of them that a way it newly occupies has, so none needs a
 * defined value before then.
 */

#ifndef HOOPNVM_MEM_CACHE_HH
#define HOOPNVM_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "stats/stat_set.hh"

namespace hoopnvm
{

/**
 * A line's state, kept per way out of the tag scan array; fills,
 * write-backs and victims pass it as one value. Recency is not here:
 * it is per set (see the file comment), and this struct holds only
 * state touched on a hit. The fields have no initializers: a fill
 * writes all five (see the file comment).
 */
struct CacheLineMeta
{
    /** Transaction that last modified this line (kInvalidTxId if none). */
    TxId txId;

    /** Core that performed the last store to this line. */
    CoreId lastWriter;

    /**
     * Which of the line's eight words hold data newer than the home
     * region (HOOP tracks updates at word granularity, §III-C). Bit i
     * covers bytes [8i, 8i+8).
     */
    std::uint8_t wordMask;

    bool dirty;

    /** Set when the line was modified inside a transaction (§III-G). */
    bool persistent;

    /**
     * Fold in @p newer, the state of a later copy of the same line:
     * dirty, persistent and the word mask accumulate, and a dirty
     * newer copy's writer and transaction replace these.
     */
    void
    merge(const CacheLineMeta &newer)
    {
        dirty = dirty || newer.dirty;
        persistent = persistent || newer.persistent;
        wordMask |= newer.wordMask;
        if (newer.dirty) {
            lastWriter = newer.lastWriter;
            txId = newer.txId;
        }
    }
};

/**
 * View of one resident cache line: the line address plus pointers to
 * its metadata slot and to the 64-byte payload in its home way. A
 * default-constructed view is "no line" and tests false. Mutations
 * through the accessors write the caches' backing arrays directly.
 */
class CacheLine
{
  public:
    CacheLine() = default;

    explicit operator bool() const { return meta_ != nullptr; }

    /** Line-aligned address of the viewed line. */
    Addr addr() const { return addr_; }

    /** The 64-byte payload, held by the line's home way. */
    std::uint8_t *data() const { return data_; }

    /** Way index of the line in its home cache (its own, in one). */
    std::uint32_t home() const { return home_; }

    /** The line's whole state, for moving it as one value. */
    CacheLineMeta &state() const { return *meta_; }

    bool &dirty() const { return meta_->dirty; }
    bool &persistent() const { return meta_->persistent; }
    CoreId &lastWriter() const { return meta_->lastWriter; }
    TxId &txId() const { return meta_->txId; }
    std::uint8_t &wordMask() const { return meta_->wordMask; }

  private:
    friend class Cache;
    CacheLine(Addr addr, CacheLineMeta *meta, std::uint8_t *data,
              std::uint32_t home)
        : addr_(addr), meta_(meta), data_(data), home_(home)
    {
    }

    Addr addr_ = kInvalidAddr;
    CacheLineMeta *meta_ = nullptr;
    std::uint8_t *data_ = nullptr;
    std::uint32_t home_ = 0;
};

/**
 * A victim line produced by an insertion. The payload is left
 * uninitialized until a victim is captured into it — when valid is
 * false, or when the capturing code skipped the copy, data holds
 * garbage.
 */
struct CacheVictim
{
    bool valid = false;
    Addr addr = kInvalidAddr;
    CacheLineMeta state{};

    /** The victim's home way (see CacheLine::home). */
    std::uint32_t home = 0;

    std::array<std::uint8_t, kCacheLineSize> data;
};

/** Set-associative write-back cache with LRU replacement. */
class Cache
{
  public:
    /**
     * @param name        Stat prefix, e.g. "l1.0" or "llc".
     * @param size_bytes  Total capacity; must be a multiple of
     *                    assoc * kCacheLineSize, and the resulting set
     *                    count a power of two (the set index is a mask).
     * @param assoc       Associativity (ways per set): a power of two,
     *                    at most kMaxAssoc.
     * @param latency     Access latency charged on hits in this level.
     * @param home        nullptr for a home cache, which keeps its
     *                    lines' payloads; otherwise the home cache this
     *                    private cache's ways refer to. It must outlive
     *                    this cache.
     */
    Cache(const std::string &name, std::uint64_t size_bytes,
          unsigned assoc, Tick latency, Cache *home = nullptr);

    /**
     * Look up @p line_addr. On a hit the LRU state is refreshed and a
     * view of the line is returned; an empty view on miss.
     */
    CacheLine probe(Addr line_addr);

    /**
     * Lookup without LRU update. Declared const because it does not
     * change cache or statistics state, but the returned view allows
     * mutation like any other — callers holding a const Cache must
     * treat it as read-only.
     */
    CacheLine peekLine(Addr line_addr) const;

    /**
     * Refresh LRU and count a hit for @p line without re-scanning its
     * set. The batched range paths use this for the second and later
     * words of a line whose residency is already established; the stat
     * and LRU effects are exactly those of a touching probe() hit.
     */
    void
    touchHit(const CacheLine &line)
    {
        touch(static_cast<std::size_t>(line.meta_ - meta_.get()));
        ++hitsC_;
    }

    /**
     * Insert a line with state @p state into a home cache, copying its
     * 64-byte payload and, when the line is new here, starting with no
     * sharers. A valid line with a different address is displaced from
     * the LRU way of the set first: @p retire is invoked with a view of
     * the victim *in place*, and the way is refilled as soon as the
     * callback returns, so the callback must copy whatever it still
     * needs (the payload included) and must not retain the view. It
     * may mutate the victim's state and sharer mask and read this
     * cache, but must not otherwise modify it.
     * @return A view of the inserted line.
     */
    template <typename RetireFn>
    CacheLine
    insert(Addr line_addr, const std::uint8_t *data,
           const CacheLineMeta &state, RetireFn &&retire)
    {
        HOOP_ASSERT(sharers_, "payload insert into a private cache");
        const std::size_t slot = findVictim(line_addr);
        const bool reinsert = tags_[slot] == tagOf(line_addr);
        if (!reinsert) {
            if (tags_[slot] != kInvalidTag)
                retire(viewOf(slot));
            sharers_[slot] = 0;
        }
        fillSlot(slot, line_addr, state);
        std::memcpy(&data_[slot * kCacheLineSize], data, kCacheLineSize);
        return viewOf(slot);
    }

    /**
     * Insert returning a copy of the victim (possibly invalid), payload
     * included. Convenience wrapper over the retire-callback overload
     * for tests that want the copy.
     */
    CacheVictim insert(Addr line_addr, const std::uint8_t *data,
                       const CacheLineMeta &state);

    /**
     * Insert a line into a private cache: the way refers to way
     * @p home of the home cache, which holds the line's payload. Victim
     * handling is as for insert(); a private victim's bytes stay in
     * its home way, so the callback need not copy them.
     */
    template <typename RetireFn>
    void
    insertRef(Addr line_addr, std::uint32_t home,
              const CacheLineMeta &state, RetireFn &&retire)
    {
        const std::size_t slot = findVictim(line_addr);
        if (tags_[slot] != kInvalidTag && tags_[slot] != tagOf(line_addr))
            retire(viewOf(slot));
        fillSlot(slot, line_addr, state);
        homeWay_[slot] = home;
    }

    /**
     * A write-back of dirty state @p state from a private cache into
     * way @p slot, which must hold @p line_addr: the state and LRU
     * effects of re-inserting the line (CacheLineMeta::merge, one
     * insertion counted) with neither a set scan nor a payload copy,
     * since the bytes already live here.
     */
    void writeBack(Addr line_addr, std::uint32_t slot,
                   const CacheLineMeta &state);

    /** View of valid way @p slot (a home way named by a private line). */
    CacheLine lineAt(std::uint32_t slot) const { return viewOf(slot); }

    /**
     * Sharer mask of home way @p slot: bit c set exactly when core c's
     * private caches hold the line.
     */
    std::uint32_t &sharers(std::uint32_t slot) { return sharers_[slot]; }

    /**
     * Drop the line @p line views, one of this cache's own ways,
     * without writeback and without a set scan; an empty view is a
     * no-op.
     */
    void invalidate(const CacheLine &line);

    /** Drop every line without writeback (crash model). */
    void invalidateAll();

    /** Call @p fn on every valid line. fn may mutate the line. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::size_t i = 0; i < numWays_; ++i) {
            if (tags_[i] != kInvalidTag) {
                CacheLine view = viewOf(i);
                fn(view);
            }
        }
    }

    Tick latency() const { return latency_; }
    unsigned numSets() const { return numSets_; }
    unsigned associativity() const { return assoc; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** Most ways a set's recency word can list. */
    static constexpr unsigned kMaxAssoc = 16;

  private:
    /** Releases an array calloc or malloc returned. */
    struct FreeArray
    {
        void operator()(void *p) const { std::free(p); }
    };

    /** @p n zero-filled Ts; calloc hands back fresh pages unwritten. */
    template <typename T>
    static std::unique_ptr<T[], FreeArray> zeroedArray(std::size_t n);

    /**
     * The stored tag of @p line_addr: its complement, so that the zero
     * tag of a zeroed way is ~kInvalidAddr. Its own inverse.
     */
    static constexpr Addr tagOf(Addr line_addr) { return ~line_addr; }

    /** Tag of an invalid way: tagOf(kInvalidAddr). */
    static constexpr Addr kInvalidTag = 0;

    /** Index of the set holding @p line_addr. */
    unsigned setIndex(Addr line_addr) const;

    /** View of way-slot @p i (caller guarantees it is valid). */
    CacheLine
    viewOf(std::size_t i) const
    {
        const std::uint32_t home =
            homeWay_ ? homeWay_[i] : static_cast<std::uint32_t>(i);
        return CacheLine(tagOf(tags_[i]),
                         const_cast<CacheLineMeta *>(&meta_[i]),
                         payload_ + std::size_t{home} * kCacheLineSize,
                         home);
    }

    /**
     * Slot index that will hold @p line_addr: an existing copy, the
     * set's lowest invalid way, or its least recently used way (whose
     * occupant the caller must retire). Updates the eviction
     * statistics when the returned slot holds a valid line with a
     * different address.
     */
    std::size_t findVictim(Addr line_addr);

    /**
     * Fill slot @p i with @p line_addr in state @p state, or merge
     * @p state into the line if the slot already holds it; make it its
     * set's most recent way.
     */
    void fillSlot(std::size_t i, Addr line_addr,
                  const CacheLineMeta &state);

    /** Make valid way-slot @p i its set's most recently used way. */
    void
    touch(std::size_t i)
    {
        std::uint64_t &r = recency_[i >> assocShift_];
        const unsigned way = static_cast<unsigned>(i & (assoc - 1));
        // Most hits, and every memoized one, find it there already.
        if ((r & 0xf) != way)
            r = promoted(r, way);
    }

    /** Recency word @p r with way @p way, which it lists, moved to
     *  the front. */
    static std::uint64_t promoted(std::uint64_t r, unsigned way);

    unsigned assoc;
    /** log2(assoc): slot i is way i & (assoc - 1) of set i >> it. */
    unsigned assocShift_;
    unsigned numSets_;
    /** numSets_ - 1: the set count is a power of two. */
    std::uint64_t setMask_;
    Tick latency_;

    /** numSets_ * assoc: the length of each parallel array. */
    std::size_t numWays_;

    // Parallel arrays indexed by set * assoc + way. A tag of
    // kInvalidTag marks an invalid way, so the lookup scan needs no
    // separate valid flag.
    std::unique_ptr<Addr[], FreeArray> tags_;
    std::unique_ptr<CacheLineMeta[], FreeArray> meta_;

    // One word per set: its valid ways, most recent first, four bits
    // each from the low end. Nibbles past the last valid way are zero.
    std::unique_ptr<std::uint64_t[], FreeArray> recency_;

    // A home cache has data_ and sharers_; a private cache has
    // homeWay_, each way's index into its home cache's arrays.
    std::unique_ptr<std::uint8_t[]> data_;
    std::unique_ptr<std::uint32_t[], FreeArray> sharers_;
    std::unique_ptr<std::uint32_t[], FreeArray> homeWay_;

    /** The payload array views index: data_, or the home cache's. */
    std::uint8_t *payload_;

    StatSet stats_;

    // Hot-path counters resolved once; StatSet references stay valid
    // for the StatSet's lifetime, so these alias the named registry.
    Counter &hitsC_;
    Counter &missesC_;
    Counter &insertionsC_;
    Counter &dirtyEvictionsC_;
    Counter &cleanEvictionsC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_MEM_CACHE_HH
