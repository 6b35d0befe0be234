#include "controller/persistence_controller.hh"

#include <algorithm>

#include "analysis/ordering_tracker.hh"
#include "common/logging.hh"

namespace hoopnvm
{

PersistenceController::PersistenceController(const std::string &name,
                                             NvmDevice &nvm,
                                             const SystemConfig &cfg_)
    : nvm_(nvm), cfg(cfg_), stats_(name),
      txBegunC_(stats_.counter("tx_begun")), coreTx(cfg_.numCores)
{
}

TxId
PersistenceController::txBegin(CoreId core, Tick now)
{
    return txBeginAs(core, now, allocTxId());
}

TxId
PersistenceController::txBeginAs(CoreId core, Tick now, TxId forced)
{
    (void)now;
    HOOP_ASSERT(core < coreTx.size(), "txBegin on unknown core %u", core);
    HOOP_ASSERT(!coreTx[core].active,
                "nested transactions are not supported (core %u)", core);
    coreTx[core].active = true;
    coreTx[core].txId = forced;
    // A forced id counts as allocated, so ids stay below nextTxId.
    nextTxId = std::max(nextTxId, forced + 1);
    ++txBegunC_;
    return coreTx[core].txId;
}

void
PersistenceController::orderDep(const char *rule, std::uint64_t key)
{
    if (ordering_)
        ordering_->addDep(rule, key);
}

void
PersistenceController::orderTrigger(const char *rule, std::uint64_t key,
                                    Tick ack, std::size_t minDeps,
                                    bool consume)
{
    if (ordering_)
        ordering_->trigger(rule, key, ack, minDeps, consume);
}

void
PersistenceController::orderClear(const char *rule)
{
    if (ordering_)
        ordering_->clearRule(rule);
}

void
PersistenceController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    // Default: the home region is the truth.
    nvm_.peek(line, buf, kCacheLineSize);
}

} // namespace hoopnvm
