#include "nvm/nvm_device.hh"

#include <cstring>

#include "common/logging.hh"

namespace hoopnvm
{

NvmDevice::NvmDevice(std::uint64_t capacity, NvmTiming timing)
    : capacity_(capacity), timing_(timing)
{
    HOOP_ASSERT(capacity_ > 0, "NVM capacity must be non-zero");
}

NvmDevice::NvmDevice(const NvmDevice &other)
    : capacity_(other.capacity_), timing_(other.timing_)
{
    *this = other;
}

NvmDevice &
NvmDevice::operator=(const NvmDevice &other)
{
    if (this == &other)
        return *this;
    NvmWriteObserver *const obs = observer_;
    capacity_ = other.capacity_;
    timing_ = other.timing_;
    energy_ = other.energy_;
    faults_ = other.faults_;
    tables_.clear();
    tables_.resize(other.tables_.size());
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        if (!other.tables_[t])
            continue;
        tables_[t] = std::make_unique<PageTable>();
        for (std::size_t p = 0; p < kPagesPerTable; ++p) {
            if (const Page *page = (*other.tables_[t])[p].get())
                (*tables_[t])[p] = std::make_unique<Page>(*page);
        }
    }
    skipSettles_ = other.skipSettles_;
    channelFree_ = other.channelFree_;
    channelBusyTicks_ = other.channelBusyTicks_;
    channelWaitTicks_ = other.channelWaitTicks_;
    drainFences_ = other.drainFences_;
    bytesRead_ = other.bytesRead_;
    bytesWritten_ = other.bytesWritten_;
    readAccesses_ = other.readAccesses_;
    writeAccesses_ = other.writeAccesses_;
    readRetryMax_ = other.readRetryMax_;
    readRetryBackoff_ = other.readRetryBackoff_;
    eccCorrectCost_ = other.eccCorrectCost_;
    readRetries_ = other.readRetries_;
    uncorrectableReads_ = other.uncorrectableReads_;
    setWriteObserver(obs);
    return *this;
}

NvmDevice::Page &
NvmDevice::pageFor(Addr addr)
{
    HOOP_ASSERT(addr < capacity_, "NVM address 0x%llx out of range",
                static_cast<unsigned long long>(addr));
    const std::uint64_t t = addr / kTableBytes;
    if (t >= tables_.size())
        tables_.resize(t + 1);
    if (!tables_[t])
        tables_[t] = std::make_unique<PageTable>();
    std::unique_ptr<Page> &page =
        (*tables_[t])[(addr / kPageBytes) % kPagesPerTable];
    if (!page)
        page = std::make_unique<Page>(); // value-initialised: zeros
    return *page;
}

const NvmDevice::Page *
NvmDevice::pageIfPresent(Addr addr) const
{
    HOOP_ASSERT(addr < capacity_, "NVM address 0x%llx out of range",
                static_cast<unsigned long long>(addr));
    const std::uint64_t t = addr / kTableBytes;
    if (t >= tables_.size() || !tables_[t])
        return nullptr;
    return (*tables_[t])[(addr / kPageBytes) % kPagesPerTable].get();
}

Tick
NvmDevice::reserve(Tick now, std::size_t len, bool is_write)
{
    const Tick start = std::max(now, channelFree_);
    if (start > now)
        channelWaitTicks_ += start - now;
    const Tick transfer = timing_.transferTicks(len);
    // The access holds the channel/bank for the transfer plus the
    // device-side busy time; its own completion additionally pays the
    // (pipelined) access latency.
    const Tick hold = transfer + (is_write ? timing_.writeBusy : kReadBusy);
    channelBusyTicks_ += hold;
    channelFree_ = start + hold;
    const Tick latency =
        is_write ? timing_.writeLatency : timing_.readLatency;

    energy_.charge(len, is_write);
    if (is_write) {
        bytesWritten_ += len;
        ++writeAccesses_;
    } else {
        bytesRead_ += len;
        ++readAccesses_;
    }
    return start + latency + transfer;
}

Tick
NvmDevice::read(Tick now, Addr addr, void *buf, std::size_t len,
                ReadFaultInfo *rf)
{
    if (rf)
        *rf = ReadFaultInfo{};
    if (!faults_.hasMediaFaults()) {
        peekRaw(addr, buf, len);
        return reserve(now, len, false);
    }
    auto *out = static_cast<std::uint8_t *>(buf);
    peekRaw(addr, out, len);
    Tick done = reserve(now, len, false);
    ReadFaultInfo info;
    faults_.filterRead(addr, out, len, 0, &info);
    // Bounded, seeded retry: transient (read-disturb) faults clear
    // after a per-word seeded attempt count, stuck-at faults never do,
    // so the loop is short in practice and bounded always. Each retry
    // backs off and re-occupies the channel like a fresh read. Any
    // corrupt delivery retries — transient words especially, since a
    // re-read is exactly what clears them; delivering them would leak
    // silent corruption into cache fills and later write-backs.
    unsigned attempt = 0;
    while ((info.uncorrectableWords > 0 || info.transientWords > 0) &&
           attempt < readRetryMax_) {
        ++attempt;
        ++readRetries_;
        done = reserve(done + readRetryBackoff_, len, false);
        peekRaw(addr, out, len);
        info = ReadFaultInfo{};
        faults_.filterRead(addr, out, len, attempt, &info);
    }
    info.retries = attempt;
    if (info.uncorrectable())
        ++uncorrectableReads_;
    // In-line correction is not free: latency surcharge per corrected
    // word, plus the word's re-read energy for the correction pipeline.
    // The correction pipeline sits on the device side of the channel,
    // so the surcharge also extends the channel occupancy — other
    // requesters queue behind it, not just this read's completion.
    if (info.correctedWords > 0) {
        const Tick surcharge = eccCorrectCost_ * info.correctedWords;
        done += surcharge;
        channelFree_ += surcharge;
        channelBusyTicks_ += surcharge;
        energy_.charge(info.correctedWords * kWordSize, false);
    }
    if (rf)
        *rf = info;
    return done;
}

Tick
NvmDevice::write(Tick now, Addr addr, const void *buf, std::size_t len)
{
    return write(now, addr, buf, len, len);
}

Tick
NvmDevice::write(Tick now, Addr addr, const void *buf, std::size_t len,
                 std::size_t accounted)
{
    // The channel reservation reads no data, so it can precede the
    // poke: the torn-write record is then complete before the bytes
    // change, and its preimage is captured straight into it.
    const Tick done = reserve(now, accounted, true);
    if (faults_.tornWritesEnabled())
        peekRaw(addr, faults_.noteWrite(addr, len, done, now), len);
    poke(addr, buf, len);
    if (observer_)
        observer_->onTimedWrite(addr, len, now, done);
    return done;
}

Tick
NvmDevice::writeAccounting(Tick now, std::size_t len)
{
    return reserve(now, len, true);
}

Tick
NvmDevice::readAccounting(Tick now, std::size_t len)
{
    return reserve(now, len, false);
}

void
NvmDevice::peek(Addr addr, void *buf, std::size_t len) const
{
    peekRaw(addr, buf, len);
    // Functional reads model a controller that retries to completion:
    // transient faults are past their clearing attempt, ECC-correctable
    // words are delivered clean. Only permanently uncorrectable damage
    // survives into the returned bytes (upstream CRCs detect it).
    // With no ECC/retry configured this is read attempt 0: every
    // scheduled media fault applies as seeded.
    faults_.filterRead(addr, static_cast<std::uint8_t *>(buf), len,
                       faults_.settledAttempt(), nullptr);
}

void
NvmDevice::peekRaw(Addr addr, void *buf, std::size_t len) const
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const std::uint64_t off = addr % kPageBytes;
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageBytes - off);
        if (const Page *p = pageIfPresent(addr))
            std::memcpy(out, p->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
NvmDevice::poke(Addr addr, const void *buf, std::size_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        const std::uint64_t off = addr % kPageBytes;
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageBytes - off);
        std::memcpy(pageFor(addr).data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::uint64_t
NvmDevice::peekWord(Addr addr) const
{
    std::uint64_t v = 0;
    peek(addr, &v, sizeof(v));
    return v;
}

void
NvmDevice::pokeWord(Addr addr, std::uint64_t value)
{
    poke(addr, &value, sizeof(value));
}

bool
NvmDevice::backed(Addr addr, std::size_t len) const
{
    if (len == 0)
        return false;
    for (Addr page = alignDown(addr, kPageBytes); page < addr + len;
         page += kPageBytes) {
        if (pageIfPresent(page))
            return true;
    }
    return false;
}

Tick
NvmDevice::drainFence(Tick now)
{
    // Every write already issued completes no later than its channel
    // slot plus the array write latency (latency is pipelined, so the
    // last slot's completion bounds them all). Holding the channel to
    // the bound is the point of the fix: a read issued after the fence
    // at an *earlier* core clock must queue behind the drain rather
    // than be serviced inside the window it fences.
    const Tick bound = std::max(now, channelFree_ + timing_.writeLatency);
    if (bound > channelFree_)
        channelBusyTicks_ += bound - channelFree_;
    channelFree_ = bound;
    ++drainFences_;
    settle(bound);
    return bound;
}

void
NvmDevice::resetCounters()
{
    channelBusyTicks_ = 0;
    channelWaitTicks_ = 0;
    drainFences_ = 0;
    bytesRead_ = 0;
    bytesWritten_ = 0;
    readAccesses_ = 0;
    writeAccesses_ = 0;
    readRetries_ = 0;
    uncorrectableReads_ = 0;
    energy_.reset();
}

void
NvmDevice::clear()
{
    tables_.clear();
    channelFree_ = 0;
    faults_.reset();
    resetCounters();
}

void
NvmDevice::applyCrashFaults(Tick tick)
{
    faults_.applyCrash(tick, [this](Addr a, const std::uint8_t *buf,
                                    std::size_t len) {
        poke(a, buf, len);
    });
    if (observer_)
        observer_->onCrash(tick);
}

void
NvmDevice::setWriteObserver(NvmWriteObserver *obs)
{
    observer_ = obs;
    faults_.setObserver(obs);
}

} // namespace hoopnvm
