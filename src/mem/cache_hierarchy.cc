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
    v.dirty = lru.dirty();
    v.persistent = lru.persistent();
    v.lastWriter = lru.lastWriter();
    v.txId = lru.txId();
    v.wordMask = lru.wordMask();
    v.home = lru.home();
}

/**
 * Fold a dirty private copy's state into the given fields of an LLC
 * line or a victim: the bytes are shared, so only the state moves.
 */
inline void
mergeDirtyState(const CacheLine &upper, bool &dirty, bool &persistent,
                CoreId &writer, TxId &tx, std::uint8_t &mask)
{
    dirty = true;
    persistent |= upper.persistent();
    writer = upper.lastWriter();
    tx = upper.txId();
    mask |= upper.wordMask();
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
    // Another core's copy is about to be merged, downgraded or
    // invalidated: no memo taken before this point may survive.
    ++structGen_;

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!(others & (std::uint32_t{1} << c)))
            continue;
        // L2 first, then L1: when both hold the line, the L1 copy is
        // the newer one and must win the merge.
        for (Cache *cache : {l2s[c].get(), l1s[c].get()}) {
            CacheLine upper = cache->findLine(line);
            if (!upper)
                continue;
            const bool upper_dirty = upper.dirty();
            if (upper_dirty) {
                mergeDirtyState(upper, llc_line.dirty(),
                                llc_line.persistent(),
                                llc_line.lastWriter(), llc_line.txId(),
                                llc_line.wordMask());
            }
            if (exclusive) {
                cache->invalidate(line);
                ++invalidationsC_;
            } else if (upper_dirty) {
                // Downgrade: the LLC now owns the dirty state; drop the
                // dirty copy so a single owner exists below.
                cache->invalidate(line);
                ++downgradesC_;
                if (cache == l1s[c].get()) {
                    // Drop the L2 copy under a dirty L1 one as well: in
                    // hardware it holds the bytes from before the L1
                    // stores, older than the LLC's now. The model keeps
                    // that presence decision although its copies share
                    // one payload.
                    l2s[c]->invalidate(line);
                } else if (CacheLine l1l = l1s[c]->findLine(line);
                           l1l && !l1l.dirty()) {
                    // Keep L1 inside L2: a clean L1 copy goes with the
                    // dirty L2 copy below it. A dirty one is merged
                    // and dropped on the next pass of this loop.
                    l1s[c]->invalidate(line);
                }
            }
        }
        if (exclusive)
            mask &= ~(std::uint32_t{1} << c);
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
        // Another core may hold a copy; invalidate it.
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
        CacheLine l1l = l1.findLine(line);
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
    insertL2(core, line, llcl.home(), false, false, core, kInvalidTxId,
             0);
    insertL1(core, line, llcl.home());
    CacheLine l1l = l1.findLine(line);
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
    l1s[core]->insertRef(line, home, false, false, core, kInvalidTxId, 0,
                         [&v](const CacheLine &lru) {
                             captureVictim(lru, v);
                         });
    // A clean victim needs nothing more: L1 is inside L2, so the L2
    // copy keeps the core's sharer bit.
    if (v.valid && v.dirty) {
        insertL2(core, v.addr, v.home, true, v.persistent, v.lastWriter,
                 v.txId, v.wordMask);
    }
}

void
CacheHierarchy::insertL2(CoreId core, Addr line, std::uint32_t home,
                         bool dirty, bool persistent, CoreId writer,
                         TxId tx, std::uint8_t mask)
{
    ++structGen_;
    CacheVictim v;
    l2s[core]->insertRef(line, home, dirty, persistent, writer, tx, mask,
                         [&v](const CacheLine &lru) {
                             captureVictim(lru, v);
                         });
    if (!v.valid)
        return;

    // Maintain L2 inclusion of L1: merge and drop any L1 copy.
    if (CacheLine l1l = l1s[core]->findLine(v.addr)) {
        if (l1l.dirty()) {
            mergeDirtyState(l1l, v.dirty, v.persistent, v.lastWriter,
                            v.txId, v.wordMask);
        }
        l1s[core]->invalidate(v.addr);
    }
    // Neither private level holds the line now.
    llc_->sharers(v.home) &= ~(std::uint32_t{1} << core);

    if (v.dirty) {
        llc_->writeBack(v.addr, v.home, v.persistent, v.lastWriter,
                        v.txId, v.wordMask);
    }
}

CacheLine
CacheHierarchy::fillLlc(CoreId core, Addr line, const std::uint8_t *data,
                        const FillResult &fr, Tick now)
{
    ++structGen_;
    CacheVictim v;
    const CacheLine filled = llc_->insert(
        line, data, fr.dirty, fr.persistent, core, fr.txId, fr.wordMask,
        [this, &v](const CacheLine &lru) {
            captureVictim(lru, v);
            v.sharers = llc_->sharers(lru.home());
            // The refill overwrites the victim's bytes, which are also
            // its private copies' bytes: keep them whenever the victim
            // or a copy above it may be dirty.
            if (v.dirty || v.sharers != 0)
                std::memcpy(v.data.data(), lru.data(), kCacheLineSize);
        });
    if (v.valid)
        retireLlcVictim(v, now);
    return filled;
}

void
CacheHierarchy::retireLlcVictim(CacheVictim &victim, Tick now)
{
    // Inclusive LLC: back-invalidate every upper-level copy, folding
    // any dirty state into the victim before it leaves the hierarchy.
    if (victim.sharers != 0) {
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            if (!(victim.sharers & (std::uint32_t{1} << c)))
                continue;
            // L2 before L1: the L1 copy is newer when both exist.
            for (Cache *cache : {l2s[c].get(), l1s[c].get()}) {
                CacheLine upper = cache->findLine(victim.addr);
                if (!upper)
                    continue;
                if (upper.dirty()) {
                    mergeDirtyState(upper, victim.dirty,
                                    victim.persistent, victim.lastWriter,
                                    victim.txId, victim.wordMask);
                }
                cache->invalidate(victim.addr);
            }
        }
        ++backInvalidationsC_;
    }

    if (victim.dirty) {
        ++llcDirtyWritebacksC_;
        // Crash point: the dirty victim has left the hierarchy but the
        // controller has not yet accepted (and persisted) it.
        ctrl->crashStep(CrashPointKind::Eviction);
        ctrl->evictLine(victim.lastWriter, victim.addr,
                        victim.data.data(), victim.persistent,
                        victim.txId, victim.wordMask, now);
    }
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
    ++structGen_;
    // Drain strictly top-down: L1 dirt folds into L2 first (an L2 copy
    // of the same line may be dirty but stale), then L2 into the LLC.
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        l1s[c]->forEachLine([&](CacheLine &line) {
            if (!line.dirty())
                return;
            insertL2(c, line.addr(), line.home(), true,
                     line.persistent(), line.lastWriter(), line.txId(),
                     line.wordMask());
            line.dirty() = false;
        });
        l1s[c]->invalidateAll();
        l2s[c]->forEachLine([&](CacheLine &line) {
            if (!line.dirty())
                return;
            llc_->writeBack(line.addr(), line.home(), line.persistent(),
                            line.lastWriter(), line.txId(),
                            line.wordMask());
            line.dirty() = false;
        });
        l2s[c]->invalidateAll();
    }
    llc_->forEachLine([&](CacheLine &line) {
        if (!line.dirty())
            return;
        ctrl->evictLine(line.lastWriter(), line.addr(), line.data(),
                        line.persistent(), line.txId(), line.wordMask(),
                        now);
        line.dirty() = false;
    });
    llc_->invalidateAll();
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
