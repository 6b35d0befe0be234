#include "workloads/interference_wl.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "workloads/value_pattern.hh"

namespace hoopnvm
{

const char *
interferenceRoleName(InterferenceRole role)
{
    switch (role) {
      case InterferenceRole::LogAppend: return "log_append";
      case InterferenceRole::PointRead: return "point_read";
      case InterferenceRole::SeqScan: return "seq_scan";
      case InterferenceRole::GcPressure: return "gc_pressure";
    }
    HOOP_PANIC("unknown interference role");
}

InterferenceRole
interferenceRoleForCore(CoreId core, unsigned n_cores, double read_mix)
{
    HOOP_ASSERT(n_cores > 0, "interference needs at least one core");
    const double clamped = std::clamp(read_mix, 0.0, 1.0);
    const auto readers = std::min<unsigned>(
        n_cores,
        static_cast<unsigned>(
            std::lround(clamped * static_cast<double>(n_cores))));
    if (core < readers) {
        return core % 2 == 0 ? InterferenceRole::PointRead
                             : InterferenceRole::SeqScan;
    }
    return (core - readers) % 2 == 0 ? InterferenceRole::LogAppend
                                     : InterferenceRole::GcPressure;
}

InterferenceWorkload::InterferenceWorkload(TxContext ctx_,
                                           const WorkloadParams &p)
    : Workload(std::move(ctx_)), p_(p),
      role_(interferenceRoleForCore(
          ctx.core(), ctx.system().config().numCores,
          p.interferenceReadMix)),
      latH_(ctx.system().stats().histogram(
          std::string("role_") + interferenceRoleName(role_) +
          "_ticks"))
{
    HOOP_ASSERT(p_.valueBytes % kWordSize == 0,
                "item size must be a word multiple");
    HOOP_ASSERT(p_.scale > 0, "interference needs a non-empty array");
    HOOP_ASSERT(p_.interferenceSaturation > 0.0 &&
                    p_.interferenceSaturation <= 1.0,
                "saturation must be in (0, 1]");
}

Addr
InterferenceWorkload::itemAddr(std::uint64_t idx) const
{
    return items_ + idx * p_.valueBytes;
}

void
InterferenceWorkload::setup()
{
    head_ = ctx.alloc(kWordSize, kCacheLineSize);
    items_ = ctx.alloc(p_.scale * p_.valueBytes, kCacheLineSize);
    const std::uint64_t zero = 0;
    ctx.init(head_, &zero, kWordSize);

    // Readers and the GC-pressure flusher start from a populated
    // array (version-0 pattern per item); the log starts empty.
    if (role_ != InterferenceRole::LogAppend) {
        std::vector<std::uint8_t> buf(p_.valueBytes);
        for (std::uint64_t i = 0; i < p_.scale; ++i) {
            fillPattern(buf.data(), p_.valueBytes, i, 0);
            ctx.init(itemAddr(i), buf.data(), p_.valueBytes);
        }
    }
    if (role_ == InterferenceRole::GcPressure)
        shadowVer_.assign(p_.scale, 0);
}

void
InterferenceWorkload::runTransaction(std::uint64_t)
{
    switch (role_) {
      case InterferenceRole::LogAppend: runLogAppend(); return;
      case InterferenceRole::PointRead: runPointRead(); return;
      case InterferenceRole::SeqScan: runSeqScan(); return;
      case InterferenceRole::GcPressure: runGcPressure(); return;
    }
}

void
InterferenceWorkload::finishTx(Tick t0)
{
    const Tick active = ctx.clock() - t0;
    latH_.record(active);
    // Open-loop pacing: a duty cycle of `saturation` means idling
    // active * (1 - s) / s between transactions. The gap scales with
    // the transaction's own cost, so a scheme that slows under
    // contention does not also get a longer rest (the offered load is
    // the controlled variable, not the completion rate).
    const double s = p_.interferenceSaturation;
    if (s < 1.0 && active > 0) {
        const auto gap = static_cast<Tick>(
            static_cast<double>(active) * (1.0 - s) / s);
        if (gap > 0)
            ctx.idle(gap);
    }
}

void
InterferenceWorkload::runLogAppend()
{
    const Tick t0 = ctx.clock();
    const unsigned n = kLogAppendsPerTx;
    std::vector<std::uint8_t> buf(p_.valueBytes);
    ctx.txBegin();
    for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t seq = shadowHead_ + k;
        fillPattern(buf.data(), p_.valueBytes, seq, 0);
        ctx.write(itemAddr(seq % p_.scale), buf.data(), p_.valueBytes);
    }
    ctx.store(head_, shadowHead_ + n);
    commitTx([this, n] { shadowHead_ += n; });
    finishTx(t0);
}

void
InterferenceWorkload::runPointRead()
{
    const Tick t0 = ctx.clock();
    const unsigned n = kPointReadsPerTx;
    const std::size_t item_words = p_.valueBytes / kWordSize;
    ctx.txBegin();
    for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t idx = ctx.rng().nextBounded(p_.scale);
        const std::uint64_t w = ctx.rng().nextBounded(item_words);
        const std::uint64_t got =
            ctx.load(itemAddr(idx) + w * kWordSize);
        if (got != patternWord(idx, 0, w * kWordSize))
            ++readErrors_;
    }
    // One durable word per tx keeps the commit non-empty (an all-read
    // region would exercise nothing of the persistence scheme).
    ctx.store(head_, shadowHead_ + 1);
    commitTx([this] { ++shadowHead_; });
    finishTx(t0);
}

void
InterferenceWorkload::runSeqScan()
{
    const Tick t0 = ctx.clock();
    const unsigned n = kScanItemsPerTx;
    std::vector<std::uint8_t> buf(p_.valueBytes);
    ctx.txBegin();
    for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t idx = (cursor_ + k) % p_.scale;
        ctx.read(itemAddr(idx), buf.data(), p_.valueBytes);
        if (!checkPattern(buf.data(), p_.valueBytes, idx, 0))
            ++readErrors_;
    }
    ctx.store(head_, shadowHead_ + 1);
    commitTx([this, n] {
        ++shadowHead_;
        cursor_ = (cursor_ + n) % p_.scale;
    });
    finishTx(t0);
}

void
InterferenceWorkload::runGcPressure()
{
    const Tick t0 = ctx.clock();
    const unsigned n = kGcOverwritesPerTx;
    std::vector<std::uint8_t> buf(p_.valueBytes);
    // Whole-item overwrites at random indexes: every byte is dirtied,
    // the maximal write-amplification / GC-churn traffic. The same
    // index may be drawn twice in one tx, so versions are resolved
    // against the staged updates first.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> updates;
    updates.reserve(n);
    ctx.txBegin();
    for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t idx = ctx.rng().nextBounded(p_.scale);
        std::uint64_t ver = shadowVer_[idx] + 1;
        for (const auto &u : updates) {
            if (u.first == idx)
                ver = u.second + 1;
        }
        fillPattern(buf.data(), p_.valueBytes, idx, ver);
        ctx.write(itemAddr(idx), buf.data(), p_.valueBytes);
        updates.emplace_back(idx, ver);
    }
    ctx.store(head_, shadowHead_ + 1);
    commitTx([this, updates = std::move(updates)] {
        ++shadowHead_;
        for (const auto &u : updates)
            shadowVer_[u.first] = u.second;
    });
    finishTx(t0);
}

bool
InterferenceWorkload::verify() const
{
    if (readErrors_ != 0)
        return false;
    if (ctx.debugLoad(head_) != shadowHead_)
        return false;
    std::vector<std::uint8_t> buf(p_.valueBytes);
    switch (role_) {
      case InterferenceRole::LogAppend: {
        // The last min(head, scale) records are live; older slots were
        // overwritten by the wrap-around.
        const std::uint64_t live = std::min(shadowHead_, p_.scale);
        for (std::uint64_t seq = shadowHead_ - live; seq < shadowHead_;
             ++seq) {
            ctx.debugRead(itemAddr(seq % p_.scale), buf.data(),
                          p_.valueBytes);
            if (!checkPattern(buf.data(), p_.valueBytes, seq, 0))
                return false;
        }
        return true;
      }
      case InterferenceRole::PointRead:
      case InterferenceRole::SeqScan: {
        for (std::uint64_t i = 0; i < p_.scale; ++i) {
            ctx.debugRead(itemAddr(i), buf.data(), p_.valueBytes);
            if (!checkPattern(buf.data(), p_.valueBytes, i, 0))
                return false;
        }
        return true;
      }
      case InterferenceRole::GcPressure: {
        for (std::uint64_t i = 0; i < p_.scale; ++i) {
            ctx.debugRead(itemAddr(i), buf.data(), p_.valueBytes);
            if (!checkPattern(buf.data(), p_.valueBytes, i,
                              shadowVer_[i]))
                return false;
        }
        return true;
      }
    }
    return false;
}

} // namespace hoopnvm
