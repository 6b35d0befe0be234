#include "hoop/multi_controller.hh"

#include <cstring>

#include "common/flat_map.hh"
#include "common/logging.hh"

namespace hoopnvm
{

MultiHoopSystem::MultiHoopSystem(const SystemConfig &cfg_,
                                 unsigned controllers)
    : cfg(cfg_), touched(cfg_.numCores),
      globalTx(cfg_.numCores, kInvalidTxId), clocks(cfg_.numCores, 0)
{
    HOOP_ASSERT(controllers >= 1, "need at least one controller");
    mcs.reserve(controllers);
    for (unsigned i = 0; i < controllers; ++i) {
        Channel ch;
        ch.nvm = std::make_unique<NvmDevice>(cfg.nvmCapacity(), cfg.nvm);
        ch.ctrl = std::make_unique<HoopController>(*ch.nvm, cfg);
        mcs.push_back(std::move(ch));
    }
}

unsigned
MultiHoopSystem::channelOf(Addr line) const
{
    return static_cast<unsigned>((lineAddr(line) / kCacheLineSize) %
                                 mcs.size());
}

void
MultiHoopSystem::txBegin(CoreId core)
{
    HOOP_ASSERT(touched[core].empty(), "nested multi-MC transaction");
    globalTx[core] = nextGlobal++;
}

void
MultiHoopSystem::storeWord(CoreId core, Addr addr, std::uint64_t value)
{
    const unsigned ch = channelOf(addr);
    // Lazily enlist the channel as a 2PC participant.
    if (!touched[core].contains(ch)) {
        mcs[ch].ctrl->txBeginAs(core, clocks[core], globalTx[core]);
        touched[core].insert(ch);
    }
    std::uint8_t bytes[kWordSize];
    std::memcpy(bytes, &value, kWordSize);
    clocks[core] +=
        mcs[ch].ctrl->storeWord(core, addr, bytes, clocks[core]);
}

std::uint64_t
MultiHoopSystem::readWord(Addr addr) const
{
    const unsigned ch = channelOf(addr);
    std::uint8_t buf[kCacheLineSize];
    mcs[ch].ctrl->debugReadLine(lineAddr(addr), buf);
    std::uint64_t v;
    std::memcpy(&v, buf + (addr - lineAddr(addr)), kWordSize);
    return v;
}

Tick
MultiHoopSystem::txEnd(CoreId core)
{
    Tick done = clocks[core];

    // Phase 1 — prepare: every participant flushes its outstanding
    // slices; the coordinator waits for all acknowledgements.
    // Channel order: commitCrashAfter cuts the phase-2 loop after a
    // fixed count, so which participants hold commit records at the
    // injected crash is observable — iterate both phases sorted.
    for (unsigned ch : sortedValues(touched[core]))
        done = std::max(done, mcs[ch].ctrl->prepare(core, clocks[core]));

    // Phase 2 — commit: write each participant's commit record. A
    // crash inside this window leaves records on a strict subset of
    // the participants, which consensus recovery must resolve.
    for (unsigned ch : sortedValues(touched[core])) {
        if (commitCrashAfter == 0)
            break;
        done = std::max(done,
                        mcs[ch].ctrl->commitPrepared(core, done));
        if (commitCrashAfter > 0)
            --commitCrashAfter;
    }

    touched[core].clear();
    globalTx[core] = kInvalidTxId;
    clocks[core] = done;
    return done;
}

void
MultiHoopSystem::crash()
{
    for (auto &ch : mcs)
        ch.ctrl->crash();
    // lint: unordered-iter-ok (outer std::vector of per-core sets; clearing is order-insensitive)
    for (auto &t : touched)
        t.clear();
    commitCrashAfter = -1;
}

void
MultiHoopSystem::recoverAll(unsigned threads)
{
    // Consensus: a transaction replays only if every controller that
    // holds any of its slices also holds its commit record.
    std::unordered_map<TxId, bool> eligible; // tx -> still consistent
    for (auto &mc : mcs) {
        OopRegion &region = mc.ctrl->region();
        std::unordered_set<TxId> has_slices;
        std::unordered_set<TxId> has_record;
        for (std::uint32_t b = 0; b < region.numBlocks(); ++b) {
            const BlockHeaderView h = region.peekHeader(b);
            if (!h.valid || h.state == BlockState::Unused)
                continue;
            for (std::uint32_t slot = 1;
                 slot <= region.slicesPerBlock(); ++slot) {
                const MemorySlice s = region.peekSlice(
                    b * (region.slicesPerBlock() + 1) + slot);
                // A corrupt slice ends the live area exactly as in
                // RecoveryManager::run — in particular a torn commit
                // record never lands in has_record, so the transaction
                // stays ineligible on this controller.
                if (s.type == SliceType::Invalid || !s.crcOk ||
                    s.seq < h.openSeq)
                    break;
                if (s.carriesWords())
                    has_slices.insert(s.txId);
                else if (s.type == SliceType::AddrRec)
                    has_record.insert(s.record.txId);
            }
        }
        // lint: unordered-iter-ok (commutative fold: each tx's verdict is AND-ed in independently)
        for (TxId tx : has_slices) {
            auto it = eligible.emplace(tx, true).first;
            if (!has_record.contains(tx))
                it->second = false; // prepared but never committed here
        }
        // lint: unordered-iter-ok (emplace never overwrites; the result set is order-independent)
        for (TxId tx : has_record)
            eligible.emplace(tx, true);
    }

    std::unordered_set<TxId> allow;
    // lint: unordered-iter-ok (building an unordered filter set; membership is order-independent)
    for (const auto &kv : eligible) {
        if (kv.second)
            allow.insert(kv.first);
    }

    for (auto &mc : mcs)
        mc.ctrl->recoverWithFilter(threads, &allow);
}

} // namespace hoopnvm
