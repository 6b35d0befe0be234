#include "mem/cache_hierarchy.hh"

#include <cstring>

#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/**
 * Capture an evicted line's state. Its payload stays in its home way;
 * fillLlc copies an LLC victim's bytes itself, before the refill.
 */
inline void
captureVictim(const CacheLine &lru, CacheVictim &v)
{
    v.valid = true;
    v.addr = lru.addr();
    v.state = lru.state();
    v.home = lru.home();
}

/** State of a clean copy @p core fetched: nothing newer than home. */
constexpr CacheLineMeta
cleanState(CoreId core)
{
    return {.txId = kInvalidTxId, .lastWriter = core, .wordMask = 0,
            .dirty = false, .persistent = false};
}

} // namespace

CacheHierarchy::CacheHierarchy(const SystemConfig &cfg_)
    : cfg(cfg_), stats_("hierarchy"),
      loadsC_(stats_.counter("loads")),
      storesC_(stats_.counter("stores")),
      llcFillsC_(stats_.counter("llc_fills")),
      invalidationsC_(stats_.counter("invalidations")),
      downgradesC_(stats_.counter("downgrades")),
      backInvalidationsC_(stats_.counter("back_invalidations")),
      llcDirtyWritebacksC_(stats_.counter("llc_dirty_writebacks")),
      llcMissLatH_(stats_.histogram("llc_miss_latency_ticks"))
{
    HOOP_ASSERT(cfg.numCores >= 1 && cfg.numCores <= kMaxCores,
                "sharer mask supports 1..%u cores", kMaxCores);
    llc_ = std::make_unique<Cache>("llc", cfg.cache.llcSize,
                                   cfg.cache.llcAssoc, kLlcLatency);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<Cache>(
            "l1." + std::to_string(c), cfg.cache.l1Size, cfg.cache.l1Assoc,
            kL1Latency, llc_.get()));
        l2s.push_back(std::make_unique<Cache>(
            "l2." + std::to_string(c), cfg.cache.l2Size, cfg.cache.l2Assoc,
            kL2Latency, llc_.get()));
    }
    memo_.resize(cfg.numCores);
}

unsigned
CacheHierarchy::dropCopies(CoreId core, Addr line, std::uint32_t home,
                           CacheLineMeta &into, bool l1Only)
{
    unsigned dropped = 0;
    // L2 first, then L1: when both hold the line, the L1 copy is the
    // newer one and must win the merge.
    Cache *const levels[] = {l2s[core].get(), l1s[core].get()};
    for (unsigned i = l1Only ? 1 : 0; i < 2; ++i) {
        const CacheLine copy = levels[i]->peekLine(line);
        if (!copy)
            continue;
        if (copy.dirty())
            into.merge(copy.state());
        levels[i]->invalidate(copy);
        ++dropped;
    }
    llc_->sharers(home) &= ~(std::uint32_t{1} << core);
    return dropped;
}

void
CacheHierarchy::reconcileSharers(CoreId core, Addr line,
                                 CacheLine llc_line, bool exclusive)
{
    HOOP_ASSERT(llc_line.addr() == line,
                "line %#llx: its LLC way holds another line",
                static_cast<unsigned long long>(line));
    std::uint32_t &mask = llc_->sharers(llc_line.home());
    const std::uint32_t self = std::uint32_t{1} << core;
    const std::uint32_t others = mask & ~self;
    mask |= self;
    if (others == 0)
        return;
    // Another core's copy may be about to be merged and dropped: no
    // memo taken before this point may survive.
    ++structGen_;

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!(others & (std::uint32_t{1} << c)))
            continue;
        if (exclusive) {
            invalidationsC_ +=
                dropCopies(c, line, llc_line.home(), llc_line.state());
            continue;
        }
        // A load downgrades: it takes the core's copies only when one
        // is dirty, so that the LLC alone owns the dirty state.
        unsigned dirty = 0;
        for (Cache *cache : {l2s[c].get(), l1s[c].get()}) {
            const CacheLine copy = cache->peekLine(line);
            dirty += copy && copy.dirty();
        }
        if (dirty != 0) {
            dropCopies(c, line, llc_line.home(), llc_line.state());
            downgradesC_ += dirty;
        }
    }
}

CacheLine
CacheHierarchy::ensureInL1(CoreId core, Addr line, bool for_store,
                           Tick &t)
{
    Cache &l1 = *l1s[core];
    Cache &l2 = *l2s[core];

    t += l1.latency();
    if (CacheLine l = l1.probe(line)) {
        // Another core may hold a copy; take it.
        if (for_store)
            reconcileSharers(core, line, llc_->lineAt(l.home()),
                             /*exclusive=*/true);
        return l;
    }
    // Software translation overheads (e.g. LSM's index walk) apply
    // when a load leaves the L1 — hot translations stay cached
    // alongside their hot data.
    if (!for_store)
        t += ctrl->loadOverhead(core, line, t);

    t += l2.latency();
    if (CacheLine l = l2.probe(line)) {
        // Promote a clean copy into L1; dirtiness stays in L2.
        const std::uint32_t home = l.home();
        insertL1(core, line, home);
        CacheLine l1l = l1.peekLine(line);
        HOOP_ASSERT(l1l, "L1 insert must succeed");
        if (for_store)
            reconcileSharers(core, line, llc_->lineAt(home),
                             /*exclusive=*/true);
        return l1l;
    }

    t += llc_->latency();
    CacheLine llcl = llc_->probe(line);
    if (!llcl) {
        // LLC miss: ask the persistence controller for the line.
        ++llcFillsC_;
        std::uint8_t buf[kCacheLineSize];
        FillResult fr = ctrl->fillLine(core, line, buf, t);
        llcMissLatH_.record(fr.completion > t ? fr.completion - t : 0);
        t = fr.completion;
        llcl = fillLlc(core, line, buf, fr, t);
    }

    reconcileSharers(core, line, llcl, for_store);

    // Promote clean copies upward; the LLC keeps dirty ownership.
    insertL2(core, line, llcl.home(), cleanState(core));
    insertL1(core, line, llcl.home());
    CacheLine l1l = l1.peekLine(line);
    HOOP_ASSERT(l1l, "L1 fill must succeed");
    return l1l;
}

Tick
CacheHierarchy::loadWord(CoreId core, Addr addr, std::uint64_t &out,
                         Tick now)
{
    if (cfg.fastPath) {
        WordMemo &m = memo_[core];
        if (m.gen == structGen_ && m.line == lineAddr(addr))
            return loadWordHit(core, m.view, addr, out, now);
        CacheLine line;
        const Tick t = loadWordResolved(core, addr, out, now, line);
        m = WordMemo{lineAddr(addr), structGen_, false, line};
        return t;
    }
    CacheLine line;
    return loadWordResolved(core, addr, out, now, line);
}

Tick
CacheHierarchy::loadWordResolved(CoreId core, Addr addr,
                                 std::uint64_t &out, Tick now,
                                 CacheLine &line)
{
    HOOP_ASSERT(isAligned(addr, kWordSize), "unaligned word load");
    ++loadsC_;
    Tick t = now + kOpCost;
    line = ensureInL1(core, lineAddr(addr), false, t);
    std::memcpy(&out, line.data() + (addr - lineAddr(addr)), kWordSize);
    return t;
}

Tick
CacheHierarchy::loadWordHit(CoreId core, CacheLine line, Addr addr,
                            std::uint64_t &out, Tick now)
{
    // What loadWordResolved does for a word of a memoized, L1-resident
    // line: kOpCost, an L1 probe hit (latency, hit counter, LRU touch),
    // no load overhead (the line is in L1), no controller involvement.
    ++loadsC_;
    Tick t = now + kOpCost;
    t += l1s[core]->latency();
    l1s[core]->touchHit(line);
    std::memcpy(&out, line.data() + (addr - line.addr()), kWordSize);
    return t;
}

Tick
CacheHierarchy::storeWord(CoreId core, Addr addr, std::uint64_t value,
                          Tick now)
{
    if (cfg.fastPath) {
        WordMemo &m = memo_[core];
        if (m.gen == structGen_ && m.line == lineAddr(addr) &&
            m.exclusive)
            return storeWordHit(core, m.view, addr, value, now);
        CacheLine line;
        const Tick t = storeWordResolved(core, addr, value, now, line);
        m = WordMemo{lineAddr(addr), structGen_, true, line};
        return t;
    }
    CacheLine line;
    return storeWordResolved(core, addr, value, now, line);
}

Tick
CacheHierarchy::storeWordResolved(CoreId core, Addr addr,
                                  std::uint64_t value, Tick now,
                                  CacheLine &line)
{
    HOOP_ASSERT(isAligned(addr, kWordSize), "unaligned word store");
    ++storesC_;
    Tick t = now + kOpCost;
    line = ensureInL1(core, lineAddr(addr), true, t);
    return writeWord(core, line, addr, value, t);
}

Tick
CacheHierarchy::storeWordHit(CoreId core, CacheLine line, Addr addr,
                             std::uint64_t value, Tick now)
{
    // What storeWordResolved does for a line this core already holds
    // exclusive: the L1 probe hits (latency, hit counter, LRU touch)
    // and the coherence work — sharer reconciliation and the
    // sharer-mask OR — is a structural no-op (the resolving store
    // stripped every other sharer and set this core's bit), so it is
    // skipped rather than re-executed.
    ++storesC_;
    Tick t = now + kOpCost;
    t += l1s[core]->latency();
    l1s[core]->touchHit(line);
    return writeWord(core, line, addr, value, t);
}

Tick
CacheHierarchy::writeWord(CoreId core, CacheLine line, Addr addr,
                          std::uint64_t value, Tick t)
{
    const Addr off = addr - line.addr();
    std::memcpy(line.data() + off, &value, kWordSize);
    line.dirty() = true;
    line.lastWriter() = core;
    line.wordMask() |= static_cast<std::uint8_t>(1u << (off / kWordSize));
    if (ctrl->inTx(core)) {
        line.persistent() = true;
        line.txId() = ctrl->currentTx(core);
        std::uint8_t bytes[kWordSize];
        std::memcpy(bytes, &value, kWordSize);
        t += ctrl->storeWord(core, addr, bytes, t);
    }
    return t;
}

void
CacheHierarchy::insertL1(CoreId core, Addr line, std::uint32_t home)
{
    ++structGen_;
    // The victim is captured inside the insert but processed only
    // after it completes, so nested evictions (which may back-
    // invalidate the line being inserted) observe the hierarchy as it
    // stands after the insert.
    CacheVictim v;
    l1s[core]->insertRef(line, home, cleanState(core),
                         [&v](const CacheLine &lru) {
                             captureVictim(lru, v);
                         });
    // A clean victim needs nothing more: L1 is inside L2, so the L2
    // copy keeps the core's sharer bit.
    if (v.valid && v.state.dirty)
        insertL2(core, v.addr, v.home, v.state);
}

void
CacheHierarchy::insertL2(CoreId core, Addr line, std::uint32_t home,
                         const CacheLineMeta &state)
{
    ++structGen_;
    CacheVictim v;
    l2s[core]->insertRef(line, home, state, [&v](const CacheLine &lru) {
        captureVictim(lru, v);
    });
    if (!v.valid)
        return;

    // L1 stays inside L2: the victim's L1 copy leaves with it. The
    // refill has already taken the victim's L2 way.
    dropCopies(core, v.addr, v.home, v.state, true);
    if (v.state.dirty)
        llc_->writeBack(v.addr, v.home, v.state);
}

CacheLine
CacheHierarchy::fillLlc(CoreId core, Addr line, const std::uint8_t *data,
                        const FillResult &fr, Tick now)
{
    ++structGen_;
    const CacheLineMeta state{.txId = fr.txId, .lastWriter = core,
                              .wordMask = fr.wordMask, .dirty = fr.dirty,
                              .persistent = fr.persistent};
    CacheVictim v;
    const CacheLine filled = llc_->insert(
        line, data, state, [this, &v](const CacheLine &lru) {
            // Inclusive LLC: back-invalidate every private copy,
            // folding its state into the victim, while the victim's
            // bytes (also those copies' bytes) are still in place.
            const std::uint32_t held = llc_->sharers(lru.home());
            if (held != 0)
                ++backInvalidationsC_;
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (held & (std::uint32_t{1} << c))
                    dropCopies(c, lru.addr(), lru.home(), lru.state());
            }
            captureVictim(lru, v);
            if (v.state.dirty)
                std::memcpy(v.data.data(), lru.data(), kCacheLineSize);
        });

    if (v.valid && v.state.dirty) {
        ++llcDirtyWritebacksC_;
        // Crash point: the dirty victim has left the hierarchy but the
        // controller has not yet accepted (and persisted) it.
        ctrl->crashStep(CrashPointKind::Eviction);
        ctrl->evictLine(v.state.lastWriter, v.addr, v.data.data(),
                        v.state.persistent, v.state.txId,
                        v.state.wordMask, now);
    }
    return filled;
}

void
CacheHierarchy::debugRead(Addr addr, void *buf, std::size_t len) const
{
    // Every cached copy of a line reads its LLC way's bytes, so the
    // LLC alone answers; a line it misses is in no cache.
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const Addr line = lineAddr(addr);
        const std::size_t off = addr - line;
        const std::size_t chunk =
            std::min<std::size_t>(len, kCacheLineSize - off);

        if (debugBatch_) {
            // Verification batch: resolve the line once and serve the
            // remaining words of it from the memo (nothing can mutate
            // while the batch is open).
            if (line != debugMemoLine_) {
                if (const CacheLine hit = llc_->peekLine(line))
                    std::memcpy(debugMemoData_, hit.data(),
                                kCacheLineSize);
                else
                    ctrl->debugReadLine(line, debugMemoData_);
                debugMemoLine_ = line;
            }
            std::memcpy(out, debugMemoData_ + off, chunk);
        } else if (const CacheLine found = llc_->peekLine(line)) {
            std::memcpy(out, found.data() + off, chunk);
        } else {
            std::uint8_t tmp[kCacheLineSize];
            ctrl->debugReadLine(line, tmp);
            std::memcpy(out, tmp + off, chunk);
        }
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
CacheHierarchy::dropAll()
{
    ++structGen_;
    for (auto &c : l1s)
        c->invalidateAll();
    for (auto &c : l2s)
        c->invalidateAll();
    llc_->invalidateAll();
}

void
CacheHierarchy::writebackAll(Tick now)
{
    // Fold each LLC line's private copies into its way, then hand the
    // dirty ways to the controller in LLC way order.
    llc_->forEachLine([&](CacheLine &line) {
        const std::uint32_t held = llc_->sharers(line.home());
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            if (held & (std::uint32_t{1} << c))
                dropCopies(c, line.addr(), line.home(), line.state());
        }
        if (line.dirty()) {
            ctrl->evictLine(line.lastWriter(), line.addr(), line.data(),
                            line.persistent(), line.txId(),
                            line.wordMask(), now);
        }
    });
    dropAll();
}

void
CacheHierarchy::resetStats()
{
    stats_.resetAll();
    llc_->stats().resetAll();
    for (auto &c : l1s)
        c->stats().resetAll();
    for (auto &c : l2s)
        c->stats().resetAll();
}

double
CacheHierarchy::llcMissRatio() const
{
    // Misses per executed load/store, comparable to the paper's
    // whole-program "LLC miss ratio" (12.1% on their suite).
    const auto misses = llc_->stats().value("misses");
    const auto ops =
        stats_.value("loads") + stats_.value("stores");
    return ops == 0 ? 0.0
                    : static_cast<double>(misses) /
                          static_cast<double>(ops);
}

} // namespace hoopnvm
