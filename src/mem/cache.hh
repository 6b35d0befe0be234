/**
 * @file
 * A single set-associative, write-back cache with LRU replacement.
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
 * a sharer mask: the cores whose private caches may hold the line. A
 * *private* cache (an L1 or L2) is built over a home cache and keeps
 * no payload: each of its ways names the home way of its line, and
 * loads and stores go through to those bytes. So a line has one copy
 * of its bytes however many levels hold it; every level keeps its own
 * tag, LRU stamp and state (dirty, persistent, word mask, writer,
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
 * Building a cache writes none of its arrays. The tag, LRU, metadata,
 * home-way and sharer arrays come zeroed from calloc, and an all-zero
 * way is invalid: tags are stored complemented, so the zero tag is
 * ~kInvalidAddr. The payload array is left uninitialized. No code
 * reads an invalid way's metadata, home way, sharer mask or payload,
 * and a fill writes every one of them that a way it newly occupies
 * has, so none needs a defined value before then.
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
 * Per-line bookkeeping kept out of the tag scan array. The LRU stamp
 * is not here either: victim selection scans every way's stamp, so the
 * stamps live in their own packed array (like the tags) and this
 * struct holds only state touched on a hit. The fields have no
 * initializers: a fill writes all five (see the file comment).
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

    bool &dirty() const { return meta_->dirty; }
    bool &persistent() const { return meta_->persistent; }
    CoreId &lastWriter() const { return meta_->lastWriter; }
    TxId &txId() const { return meta_->txId; }
    std::uint8_t &wordMask() const { return meta_->wordMask; }
    std::uint64_t lastUse() const { return *lastUse_; }

  private:
    friend class Cache;
    CacheLine(Addr addr, CacheLineMeta *meta, std::uint64_t *last_use,
              std::uint8_t *data, std::uint32_t home)
        : addr_(addr), meta_(meta), lastUse_(last_use), data_(data),
          home_(home)
    {
    }

    Addr addr_ = kInvalidAddr;
    CacheLineMeta *meta_ = nullptr;
    std::uint64_t *lastUse_ = nullptr;
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
    bool dirty = false;
    bool persistent = false;
    CoreId lastWriter = 0;
    TxId txId = kInvalidTxId;
    std::uint8_t wordMask = 0;

    /** The victim's home way (see CacheLine::home). */
    std::uint32_t home = 0;

    /** A home-cache victim's sharer mask. */
    std::uint32_t sharers = 0;

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
     * @param assoc       Associativity (ways per set).
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
     * Lookup that updates neither LRU state nor hit/miss statistics.
     * For internal coherence bookkeeping, so protocol probes do not
     * distort the measured hit ratios.
     */
    CacheLine findLine(Addr line_addr) { return peekLine(line_addr); }

    /**
     * Refresh LRU and count a hit for @p line without re-scanning its
     * set. The batched range paths use this for the second and later
     * words of a line whose residency is already established; the stat
     * and LRU effects are exactly those of a touching probe() hit.
     */
    void
    touchHit(const CacheLine &line)
    {
        *line.lastUse_ = ++useClock;
        ++hitsC_;
    }

    /**
     * Insert a line into a home cache, copying its 64-byte payload and,
     * when the line is new here, starting with no sharers. A valid
     * line with a different address is displaced from the LRU way of
     * the set first: @p retire is invoked with a view of the victim
     * *in place*, and the way is refilled as soon as the callback
     * returns, so the callback must copy whatever it still needs
     * (the payload included) and must not retain the view. It may
     * mutate the victim and read this cache, but must not modify it.
     * @return A view of the inserted line.
     */
    template <typename RetireFn>
    CacheLine
    insert(Addr line_addr, const std::uint8_t *data, bool dirty,
           bool persistent, CoreId writer, TxId tx_id,
           std::uint8_t word_mask, RetireFn &&retire)
    {
        HOOP_ASSERT(sharers_, "payload insert into a private cache");
        const std::size_t slot = findVictim(line_addr);
        const bool reinsert = tags_[slot] == tagOf(line_addr);
        if (!reinsert) {
            if (tags_[slot] != kInvalidTag)
                retire(viewOf(slot));
            sharers_[slot] = 0;
        }
        fillSlot(slot, line_addr, dirty, persistent, writer, tx_id,
                 word_mask);
        std::memcpy(&data_[slot * kCacheLineSize], data, kCacheLineSize);
        return viewOf(slot);
    }

    /**
     * Insert returning a copy of the victim (possibly invalid), payload
     * and sharer mask included. Convenience wrapper over the
     * retire-callback overload for tests and tools that want the copy.
     */
    CacheVictim insert(Addr line_addr, const std::uint8_t *data,
                       bool dirty, bool persistent, CoreId writer,
                       TxId tx_id, std::uint8_t word_mask = 0);

    /**
     * Insert a line into a private cache: the way refers to way
     * @p home of the home cache, which holds the line's payload. Victim
     * handling is as for insert(); a private victim's bytes stay in
     * its home way, so the callback need not copy them.
     */
    template <typename RetireFn>
    void
    insertRef(Addr line_addr, std::uint32_t home, bool dirty,
              bool persistent, CoreId writer, TxId tx_id,
              std::uint8_t word_mask, RetireFn &&retire)
    {
        const std::size_t slot = findVictim(line_addr);
        if (tags_[slot] != kInvalidTag && tags_[slot] != tagOf(line_addr))
            retire(viewOf(slot));
        fillSlot(slot, line_addr, dirty, persistent, writer, tx_id,
                 word_mask);
        homeWay_[slot] = home;
    }

    /**
     * A dirty write-back from a private cache into way @p slot, which
     * must hold @p line_addr: the state and LRU effects of re-inserting
     * the line (dirty sticks, persistent and the word mask accumulate,
     * writer and transaction become the written-back ones, one
     * insertion counted) with neither a set scan nor a payload copy,
     * since the bytes already live here.
     */
    void writeBack(Addr line_addr, std::uint32_t slot, bool persistent,
                   CoreId writer, TxId tx_id, std::uint8_t word_mask);

    /** View of valid way @p slot (a home way named by a private line). */
    CacheLine lineAt(std::uint32_t slot) const { return viewOf(slot); }

    /**
     * Sharer mask of home way @p slot: bit c set when core c's private
     * caches may hold the line (a superset of the cores that do).
     */
    std::uint32_t &sharers(std::uint32_t slot) { return sharers_[slot]; }

    /** Drop @p line_addr without writeback; no-op if absent. */
    void invalidate(Addr line_addr);

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
                         const_cast<std::uint64_t *>(&lastUse_[i]),
                         payload_ + std::size_t{home} * kCacheLineSize,
                         home);
    }

    /**
     * Slot index that will hold @p line_addr: an existing copy, an
     * invalid way, or the LRU way of the set (whose previous occupant
     * the caller must retire). Updates the eviction statistics when
     * the returned slot holds a valid line with a different address.
     */
    std::size_t findVictim(Addr line_addr);

    /** Overwrite slot @p i's tag, state and LRU stamp. */
    void fillSlot(std::size_t i, Addr line_addr, bool dirty,
                  bool persistent, CoreId writer, TxId tx_id,
                  std::uint8_t word_mask);

    unsigned assoc;
    unsigned numSets_;
    /** numSets_ - 1: the set count is a power of two. */
    std::uint64_t setMask_;
    Tick latency_;
    std::uint64_t useClock = 0;

    /** numSets_ * assoc: the length of each parallel array. */
    std::size_t numWays_;

    // Parallel arrays indexed by set * assoc + way. A tag of
    // kInvalidTag marks an invalid way, so the lookup scan needs no
    // separate valid flag. LRU stamps are packed like the tags: victim
    // selection reads every way's stamp, so an 8-way set's stamps fit
    // one host cache line instead of spanning eight meta structs.
    std::unique_ptr<Addr[], FreeArray> tags_;
    std::unique_ptr<std::uint64_t[], FreeArray> lastUse_;
    std::unique_ptr<CacheLineMeta[], FreeArray> meta_;

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
