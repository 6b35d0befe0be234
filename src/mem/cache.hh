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
 * Storage is structure-of-arrays: the set-lookup scan walks a packed
 * tag array (one 8-byte tag per way, so an 8-way set is a single host
 * cache line), while per-line metadata and the 64-byte payloads live in
 * separate arrays touched only on a hit. CacheLine is a non-owning
 * *view* into those arrays, not the storage itself; views are cheap to
 * copy and remain valid until the way they reference is re-filled or
 * invalidated.
 *
 * Building a cache writes none of its arrays. The tag, LRU and metadata
 * arrays come zeroed from calloc, and an all-zero way is invalid: tags
 * are stored complemented, so the zero tag is ~kInvalidAddr. The
 * payload array is left uninitialized. No code reads an invalid way's
 * metadata or payload, and a fill writes every metadata field of a way
 * it newly occupies, so neither needs a defined value before then.
 */

#ifndef HOOPNVM_MEM_CACHE_HH
#define HOOPNVM_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

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
 * its metadata slot and 64-byte payload. A default-constructed view is
 * "no line" and tests false. Mutations through the accessors write the
 * cache's backing arrays directly.
 */
class CacheLine
{
  public:
    CacheLine() = default;

    explicit operator bool() const { return meta_ != nullptr; }

    /** Line-aligned address of the viewed line. */
    Addr addr() const { return addr_; }

    /** The 64-byte payload. */
    std::uint8_t *data() const { return data_; }

    bool &dirty() const { return meta_->dirty; }
    bool &persistent() const { return meta_->persistent; }
    CoreId &lastWriter() const { return meta_->lastWriter; }
    TxId &txId() const { return meta_->txId; }
    std::uint8_t &wordMask() const { return meta_->wordMask; }
    std::uint64_t lastUse() const { return *lastUse_; }

  private:
    friend class Cache;
    CacheLine(Addr addr, CacheLineMeta *meta, std::uint64_t *last_use,
              std::uint8_t *data)
        : addr_(addr), meta_(meta), lastUse_(last_use), data_(data)
    {
    }

    Addr addr_ = kInvalidAddr;
    CacheLineMeta *meta_ = nullptr;
    std::uint64_t *lastUse_ = nullptr;
    std::uint8_t *data_ = nullptr;
};

/**
 * A victim line produced by an insertion. The payload is left
 * uninitialized until a victim is captured into it — when valid is
 * false, data holds garbage.
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
     */
    Cache(const std::string &name, std::uint64_t size_bytes,
          unsigned assoc, Tick latency);

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
     * Insert a line, evicting the LRU way of the set if necessary.
     *
     * When a valid line with a different address is displaced,
     * @p retire is invoked with a view of the victim *in place* — the
     * callback borrows the slot's storage for its duration, so the
     * common case (no writeback, or a writeback that only reads the
     * data once) never copies the 64-byte payload. The slot is
     * overwritten as soon as the callback returns; callers must not
     * retain the view. The callback may mutate the victim (e.g. fold
     * dirtier upper-level copies into it) but must not touch this
     * cache.
     */
    template <typename RetireFn>
    void
    insert(Addr line_addr, const std::uint8_t *data, bool dirty,
           bool persistent, CoreId writer, TxId tx_id,
           std::uint8_t word_mask, RetireFn &&retire)
    {
        const std::size_t slot = findVictim(line_addr);
        if (tags_[slot] != kInvalidTag && tags_[slot] != tagOf(line_addr))
            retire(viewOf(slot));
        fillSlot(slot, line_addr, data, dirty, persistent, writer,
                 tx_id, word_mask);
    }

    /**
     * Insert returning a copy of the victim (possibly invalid).
     * Convenience wrapper over the retire-callback overload for tests
     * and tools that want the copy.
     */
    CacheVictim insert(Addr line_addr, const std::uint8_t *data,
                       bool dirty, bool persistent, CoreId writer,
                       TxId tx_id, std::uint8_t word_mask = 0);

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
        return CacheLine(tagOf(tags_[i]),
                         const_cast<CacheLineMeta *>(&meta_[i]),
                         const_cast<std::uint64_t *>(&lastUse_[i]),
                         const_cast<std::uint8_t *>(
                             &data_[i * kCacheLineSize]));
    }

    /**
     * Slot index that will hold @p line_addr: an existing copy, an
     * invalid way, or the LRU way of the set (whose previous occupant
     * the caller must retire). Updates the eviction statistics when
     * the returned slot holds a valid line with a different address.
     */
    std::size_t findVictim(Addr line_addr);

    /** Overwrite slot @p i with the inserted line's state. */
    void fillSlot(std::size_t i, Addr line_addr,
                  const std::uint8_t *data, bool dirty, bool persistent,
                  CoreId writer, TxId tx_id, std::uint8_t word_mask);

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
    std::unique_ptr<std::uint8_t[]> data_;

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
