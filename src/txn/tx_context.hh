/**
 * @file
 * Per-core transactional accessor handed to workloads.
 *
 * TxContext is the programming interface the paper exposes (§III-B):
 * Tx_begin / Tx_end failure-atomic regions plus ordinary loads and
 * stores in between — no clwb/mfence, no read/write wrapping.
 * Everything bottoms out in word-granularity System accesses.
 */

#ifndef HOOPNVM_TXN_TX_CONTEXT_HH
#define HOOPNVM_TXN_TX_CONTEXT_HH

#include "common/rng.hh"
#include "sim/system.hh"

namespace hoopnvm
{

/** RAII-less transactional accessor bound to one core. */
class TxContext
{
  public:
    TxContext(System &sys, CoreId core, std::uint64_t seed)
        : sys_(&sys), core_(core), rng_(seed)
    {
    }

    void txBegin() { sys_->txBegin(core_); }
    void txEnd() { sys_->txEnd(core_); }

    std::uint64_t load(Addr a) { return sys_->loadWord(core_, a); }
    void store(Addr a, std::uint64_t v) { sys_->storeWord(core_, a, v); }

    void
    read(Addr a, void *buf, std::size_t len)
    {
        sys_->readBytes(core_, a, buf, len);
    }

    void
    write(Addr a, const void *buf, std::size_t len)
    {
        sys_->writeBytes(core_, a, buf, len);
    }

    Addr
    alloc(std::uint64_t size, std::uint64_t align = kWordSize)
    {
        return sys_->alloc(core_, size, align);
    }

    /** Untimed setup write (pre-existing data in NVM). */
    void
    init(Addr a, const void *buf, std::size_t len)
    {
        sys_->pokeInit(a, buf, len);
    }

    /** Untimed verification read. */
    void
    debugRead(Addr a, void *buf, std::size_t len) const
    {
        sys_->debugRead(a, buf, len);
    }

    std::uint64_t
    debugLoad(Addr a) const
    {
        return sys_->debugLoadWord(a);
    }

    /**
     * Whether @p a is a plausible home-region object address that a
     * verification walk may dereference. Structural verifiers follow
     * pointers read from a possibly-corrupt NVM image; a torn word can
     * hold garbage that would otherwise send debugLoad() out of the
     * device (fatal) instead of merely failing the check.
     */
    bool
    debugAddrOk(Addr a) const
    {
        return a >= kCacheLineSize && a % kWordSize == 0 &&
               a + kCacheLineSize <= sys_->config().homeBytes;
    }

    /**
     * Open-loop pacing: burn @p d ticks of deliberate idleness between
     * transactions (the interference suite's saturation knob). Must be
     * called outside a failure-atomic region.
     */
    void idle(Tick d) { sys_->idle(core_, d); }

    /** This core's current simulated clock. */
    Tick clock() const { return sys_->core(core_).clock(); }

    CoreId core() const { return core_; }
    Rng &rng() { return rng_; }
    System &system() { return *sys_; }

    /** Send every later access to @p sys (see Workload::rebind). */
    void rebind(System &sys) { sys_ = &sys; }

  private:
    System *sys_;
    CoreId core_;
    Rng rng_;
};

} // namespace hoopnvm

#endif // HOOPNVM_TXN_TX_CONTEXT_HH
