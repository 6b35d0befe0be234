#include "mem/cache_hierarchy.hh"

#include <cstring>

#include "common/logging.hh"

namespace hoopnvm
{

namespace
{

/**
 * Capture an evicted line's tag state; the 64-byte payload is copied
 * only when the victim is dirty — every retirement path either never
 * reads a clean victim's data or overwrites it wholesale from a dirtier
 * upper-level copy first.
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
    if (lru.dirty())
        std::memcpy(v.data.data(), lru.data(), kCacheLineSize);
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
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<Cache>(
            "l1." + std::to_string(c), cfg.cache.l1Size, cfg.cache.l1Assoc,
            cfg.cache.l1Latency));
        l2s.push_back(std::make_unique<Cache>(
            "l2." + std::to_string(c), cfg.cache.l2Size, cfg.cache.l2Assoc,
            cfg.cache.l2Latency));
    }
    llc_ = std::make_unique<Cache>("llc", cfg.cache.llcSize,
                                   cfg.cache.llcAssoc,
                                   cfg.cache.llcLatency);
    memo_.resize(cfg.numCores);
}

void
CacheHierarchy::reconcileSharers(CoreId core, Addr line,
                                 CacheLine llc_line, bool exclusive)
{
    std::uint32_t *mask = sharers.find(line);
    if (!mask)
        return;
    const std::uint32_t others = *mask & ~(std::uint32_t{1} << core);
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
                std::memcpy(llc_line.data(), upper.data(),
                            kCacheLineSize);
                llc_line.dirty() = true;
                llc_line.persistent() |= upper.persistent();
                llc_line.lastWriter() = upper.lastWriter();
                llc_line.txId() = upper.txId();
                llc_line.wordMask() |= upper.wordMask();
            }
            if (exclusive) {
                cache->invalidate(line);
                ++invalidationsC_;
            } else if (upper_dirty) {
                // Downgrade: LLC now has the data; drop the dirty copy
                // so a single up-to-date copy exists below.
                cache->invalidate(line);
                ++downgradesC_;
            }
        }
        if (exclusive)
            *mask &= ~(std::uint32_t{1} << c);
    }
    if (*mask == 0)
        sharers.erase(line);
}

CacheLine
CacheHierarchy::ensureInL1(CoreId core, Addr line, bool for_store,
                           Tick &t)
{
    Cache &l1 = *l1s[core];
    Cache &l2 = *l2s[core];

    t += l1.latency();
    if (CacheLine l = l1.probe(line)) {
        if (for_store) {
            // Another core may hold a stale copy; invalidate it.
            CacheLine llcl = llc_->findLine(line);
            if (llcl)
                reconcileSharers(core, line, llcl, /*exclusive=*/true);
            sharers[line] |= std::uint32_t{1} << core;
        }
        return l;
    }

    t += l2.latency();
    if (CacheLine l = l2.probe(line)) {
        // Promote a clean copy into L1; dirtiness stays in L2.
        insertL1(core, line, l.data(), false, false, core,
                 kInvalidTxId, 0, t);
        CacheLine l1l = l1.findLine(line);
        HOOP_ASSERT(l1l, "L1 insert must succeed");
        if (for_store) {
            CacheLine llcl = llc_->findLine(line);
            if (llcl)
                reconcileSharers(core, line, llcl, /*exclusive=*/true);
            sharers[line] |= std::uint32_t{1} << core;
        }
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
        insertLlc(core, line, buf, fr.dirty, fr.persistent, core,
                  fr.txId, fr.wordMask, t);
        llcl = llc_->findLine(line);
        HOOP_ASSERT(llcl, "LLC insert must succeed");
    }

    reconcileSharers(core, line, llcl, for_store);
    sharers[line] |= std::uint32_t{1} << core;

    // Promote clean copies upward; the LLC keeps dirty ownership.
    insertL2(core, line, llcl.data(), false, false, core,
             kInvalidTxId, 0, t);
    insertL1(core, line, llcl.data(), false, false, core,
             kInvalidTxId, 0, t);
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
    Tick t = now + cfg.opCost();
    // Software translation overheads (e.g. LSM's index walk) apply
    // when the access leaves the L1 — hot translations stay cached
    // alongside their hot data.
    if (!l1s[core]->peekLine(lineAddr(addr)))
        t += ctrl->loadOverhead(core, addr, t);
    line = ensureInL1(core, lineAddr(addr), false, t);
    std::memcpy(&out, line.data() + (addr - lineAddr(addr)), kWordSize);
    return t;
}

Tick
CacheHierarchy::loadWordHit(CoreId core, CacheLine line, Addr addr,
                            std::uint64_t &out, Tick now)
{
    // The word-at-a-time path for a second word of a resident line:
    // opCost, an L1 probe hit (latency, hit counter, LRU touch), no
    // load overhead (the line is in L1), no controller involvement.
    ++loadsC_;
    Tick t = now + cfg.opCost();
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
    Tick t = now + cfg.opCost();
    line = ensureInL1(core, lineAddr(addr), true, t);
    std::memcpy(line.data() + (addr - lineAddr(addr)), &value,
                kWordSize);
    line.dirty() = true;
    line.lastWriter() = core;
    line.wordMask() |= static_cast<std::uint8_t>(
        1u << ((addr - lineAddr(addr)) / kWordSize));

    const bool in_tx = ctrl->inTx(core);
    if (in_tx) {
        line.persistent() = true;
        line.txId() = ctrl->currentTx(core);
        std::uint8_t bytes[kWordSize];
        std::memcpy(bytes, &value, kWordSize);
        t += ctrl->storeWord(core, addr, bytes, t);
    }
    return t;
}

Tick
CacheHierarchy::storeWordHit(CoreId core, CacheLine line, Addr addr,
                             std::uint64_t value, Tick now)
{
    // The word-at-a-time path for a second store to a line this core
    // already holds exclusive: the L1 probe hits (latency, hit
    // counter, LRU touch) and the coherence work — LLC lookup, sharer
    // reconciliation, sharer-mask OR — is a structural no-op (the
    // first store stripped every other sharer and set this core's
    // bit), so it is skipped rather than re-executed.
    ++storesC_;
    Tick t = now + cfg.opCost();
    t += l1s[core]->latency();
    l1s[core]->touchHit(line);
    std::memcpy(line.data() + (addr - line.addr()), &value, kWordSize);
    line.dirty() = true;
    line.lastWriter() = core;
    line.wordMask() |= static_cast<std::uint8_t>(
        1u << ((addr - line.addr()) / kWordSize));

    const bool in_tx = ctrl->inTx(core);
    if (in_tx) {
        line.persistent() = true;
        line.txId() = ctrl->currentTx(core);
        std::uint8_t bytes[kWordSize];
        std::memcpy(bytes, &value, kWordSize);
        t += ctrl->storeWord(core, addr, bytes, t);
    }
    return t;
}

void
CacheHierarchy::insertL1(CoreId core, Addr line, const std::uint8_t *data,
                         bool dirty, bool persistent, CoreId writer,
                         TxId tx, std::uint8_t mask, Tick now)
{
    ++structGen_;
    // The victim is captured inside the insert but processed only
    // after it completes, so nested evictions (which may back-
    // invalidate the line being inserted) observe the same hierarchy
    // state as before the zero-copy rework.
    CacheVictim v;
    l1s[core]->insert(line, data, dirty, persistent, writer, tx, mask,
                      [&v](const CacheLine &lru) {
                          captureVictim(lru, v);
                      });
    if (!v.valid)
        return;
    if (v.dirty) {
        insertL2(core, v.addr, v.data.data(), true, v.persistent,
                 v.lastWriter, v.txId, v.wordMask, now);
    } else {
        updateSharerOnDrop(core, v.addr);
    }
}

void
CacheHierarchy::insertL2(CoreId core, Addr line, const std::uint8_t *data,
                         bool dirty, bool persistent, CoreId writer,
                         TxId tx, std::uint8_t mask, Tick now)
{
    ++structGen_;
    CacheVictim v;
    l2s[core]->insert(line, data, dirty, persistent, writer, tx, mask,
                      [&v](const CacheLine &lru) {
                          captureVictim(lru, v);
                      });
    if (!v.valid)
        return;

    // Maintain L2 inclusion of L1: merge and drop any L1 copy.
    if (CacheLine l1l = l1s[core]->findLine(v.addr)) {
        if (l1l.dirty()) {
            std::memcpy(v.data.data(), l1l.data(), kCacheLineSize);
            v.dirty = true;
            v.persistent |= l1l.persistent();
            v.lastWriter = l1l.lastWriter();
            v.txId = l1l.txId();
            v.wordMask |= l1l.wordMask();
        }
        l1s[core]->invalidate(v.addr);
    }
    updateSharerOnDrop(core, v.addr);

    if (v.dirty) {
        insertLlc(core, v.addr, v.data.data(), true, v.persistent,
                  v.lastWriter, v.txId, v.wordMask, now);
    }
}

void
CacheHierarchy::insertLlc(CoreId core, Addr line, const std::uint8_t *data,
                          bool dirty, bool persistent, CoreId writer,
                          TxId tx, std::uint8_t mask, Tick now)
{
    (void)core;
    ++structGen_;
    CacheVictim v;
    llc_->insert(line, data, dirty, persistent, writer, tx, mask,
                 [&v](const CacheLine &lru) {
                     captureVictim(lru, v);
                 });
    if (v.valid)
        retireLlcVictim(v, now);
}

void
CacheHierarchy::retireLlcVictim(CacheVictim &victim, Tick now)
{
    // Inclusive LLC: back-invalidate every upper-level copy, folding
    // any dirty data into the victim before it leaves the hierarchy.
    std::uint32_t *mask = sharers.find(victim.addr);
    if (mask) {
        const std::uint32_t bits = *mask;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            if (!(bits & (std::uint32_t{1} << c)))
                continue;
            // L2 before L1: the L1 copy is newer when both exist.
            for (Cache *cache : {l2s[c].get(), l1s[c].get()}) {
                CacheLine upper = cache->findLine(victim.addr);
                if (!upper)
                    continue;
                if (upper.dirty()) {
                    std::memcpy(victim.data.data(), upper.data(),
                                kCacheLineSize);
                    victim.dirty = true;
                    victim.persistent |= upper.persistent();
                    victim.lastWriter = upper.lastWriter();
                    victim.txId = upper.txId();
                    victim.wordMask |= upper.wordMask();
                }
                cache->invalidate(victim.addr);
            }
        }
        sharers.erase(victim.addr);
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
CacheHierarchy::updateSharerOnDrop(CoreId core, Addr line)
{
    if (l1s[core]->peekLine(line) || l2s[core]->peekLine(line))
        return;
    std::uint32_t *mask = sharers.find(line);
    if (!mask)
        return;
    *mask &= ~(std::uint32_t{1} << core);
    if (*mask == 0)
        sharers.erase(line);
}

void
CacheHierarchy::debugRead(Addr addr, void *buf, std::size_t len) const
{
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
                CacheLine hit;
                for (unsigned c = 0; c < cfg.numCores && !hit; ++c) {
                    hit = l1s[c]->peekLine(line);
                    if (!hit)
                        hit = l2s[c]->peekLine(line);
                }
                if (!hit)
                    hit = llc_->peekLine(line);
                if (hit)
                    std::memcpy(debugMemoData_, hit.data(),
                                kCacheLineSize);
                else
                    ctrl->debugReadLine(line, debugMemoData_);
                debugMemoLine_ = line;
            }
            std::memcpy(out, debugMemoData_ + off, chunk);
            addr += chunk;
            out += chunk;
            len -= chunk;
            continue;
        }

        CacheLine found;
        for (unsigned c = 0; c < cfg.numCores && !found; ++c) {
            found = l1s[c]->peekLine(line);
            if (!found)
                found = l2s[c]->peekLine(line);
        }
        if (!found)
            found = llc_->peekLine(line);

        if (found) {
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
    sharers.clear();
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
            insertL2(c, line.addr(), line.data(), true,
                     line.persistent(), line.lastWriter(), line.txId(),
                     line.wordMask(), now);
            line.dirty() = false;
        });
        l1s[c]->invalidateAll();
        l2s[c]->forEachLine([&](CacheLine &line) {
            if (!line.dirty())
                return;
            insertLlc(c, line.addr(), line.data(), true,
                      line.persistent(), line.lastWriter(), line.txId(),
                      line.wordMask(), now);
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
    sharers.clear();
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
