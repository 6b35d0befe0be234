#include "sim/system.hh"

#include <cstring>

#include "analysis/ordering_tracker.hh"
#include "baselines/lad_controller.hh"
#include "baselines/lsm_controller.hh"
#include "baselines/osp_controller.hh"
#include "baselines/redo_controller.hh"
#include "baselines/undo_controller.hh"
#include "common/host_profiler.hh"
#include "common/logging.hh"
#include "controller/native_controller.hh"
#include "hoop/hoop_controller.hh"
#include "stats/trace.hh"

namespace hoopnvm
{

namespace
{

/** Summarize @p h (samples in ticks) as nanosecond quantiles. */
LatencySummary
summarizeTicks(const Histogram *h)
{
    LatencySummary s;
    if (!h || h->count() == 0)
        return s;
    s.count = h->count();
    s.p50Ns = h->quantile(0.50) / static_cast<double>(kTicksPerNs);
    s.p95Ns = h->quantile(0.95) / static_cast<double>(kTicksPerNs);
    s.p99Ns = h->quantile(0.99) / static_cast<double>(kTicksPerNs);
    s.p999Ns = h->quantile(0.999) / static_cast<double>(kTicksPerNs);
    s.maxNs = ticksToNs(h->max());
    s.meanNs = h->mean() / static_cast<double>(kTicksPerNs);
    // Mark tails the population cannot resolve: the value is the
    // exact max under Histogram's saturation rule, not a quantile.
    s.p50Saturated = Histogram::quantileSaturated(s.count, 0.50);
    s.p95Saturated = Histogram::quantileSaturated(s.count, 0.95);
    s.p99Saturated = Histogram::quantileSaturated(s.count, 0.99);
    s.p999Saturated = Histogram::quantileSaturated(s.count, 0.999);
    return s;
}

/**
 * Role-name table for the interference workload's per-role latency
 * histograms ("role_<name>_ticks" in the system StatSet). metrics()
 * scans this fixed list so RunMetrics.roles is deterministic in both
 * content and order; workloads that never record them produce an
 * empty roles vector.
 */
constexpr const char *kRoleNames[] = {"log_append", "point_read",
                                      "seq_scan", "gc_pressure"};


} // namespace

std::unique_ptr<PersistenceController>
makeController(Scheme scheme, NvmDevice &nvm, const SystemConfig &cfg)
{
    switch (scheme) {
      case Scheme::Native:
        return std::make_unique<NativeController>(nvm, cfg);
      case Scheme::Hoop:
        return std::make_unique<HoopController>(nvm, cfg);
      case Scheme::OptRedo:
        return std::make_unique<RedoController>(nvm, cfg);
      case Scheme::OptUndo:
        return std::make_unique<UndoController>(nvm, cfg);
      case Scheme::Osp:
        return std::make_unique<OspController>(nvm, cfg);
      case Scheme::Lsm:
        return std::make_unique<LsmController>(nvm, cfg);
      case Scheme::Lad:
        return std::make_unique<LadController>(nvm, cfg);
    }
    HOOP_PANIC("unknown scheme");
}

System::System(const SystemConfig &cfg, Scheme scheme)
    : cfg_(cfg), scheme_(scheme), clockTracker_(cfg.numCores),
      stats_("system"),
      critPathH_(stats_.histogram("tx_critical_path_ticks"))
{
    nvm_ = std::make_unique<NvmDevice>(cfg_.nvmCapacity(), cfg_.nvm,
                                       cfg_.energy);
    if (cfg_.ft.enabled) {
        // Configure media tolerance before the controller exists: its
        // constructor may program-verify regions against the ECC view.
        nvm_->faults().setEcc(cfg_.ft.eccCorrectBits);
        nvm_->faults().setTransientFaults(cfg_.ft.readRetryMax);
        nvm_->setReadRetryPolicy(cfg_.ft.readRetryMax,
                                 cfg_.ft.readRetryBackoff,
                                 cfg_.ft.eccCorrectCost);
    }
    ctrl_ = makeController(scheme, *nvm_, cfg_);
    ctrl_->setCrashHook(&crashHook_);
    caches_ = std::make_unique<CacheHierarchy>(cfg_);
    caches_->setController(ctrl_.get());
    alloc_ = std::make_unique<SimAllocator>(cfg_.homeBase(),
                                            cfg_.homeBytes,
                                            cfg_.numCores);
    cores_.reserve(cfg_.numCores);
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        cores_.emplace_back(c);
        cores_.back().setTracker(&clockTracker_);
    }
    nextEpoch_ = cfg_.epochSamplePeriod;
    nextScrub_ = cfg_.ft.scrubPeriod;
    if (Trace::enabled()) {
        trace_ = std::make_unique<TraceBuffer>(schemeName(scheme_));
        ctrl_->setTrace(trace_.get());
    }
}

System::~System() = default;

void
System::txBegin(CoreId core)
{
    Core &c = cores_[core];
    HOOP_ASSERT(!c.inTx(), "nested txBegin on core %u", core);
    c.advanceBy(cfg_.opCost()); // Tx_begin sets the tx-state bit
    ctrl_->txBegin(core, c.clock());
    c.beginTx(c.clock());
}

void
System::txEnd(CoreId core)
{
    Core &c = cores_[core];
    HOOP_ASSERT(c.inTx(), "txEnd without txBegin on core %u", core);
    const Tick done = ctrl_->txEnd(core, c.clock() + cfg_.opCost());
    // Crash point between the commit record being issued and the
    // commit being acknowledged: the record is still in flight (the
    // core clock has not advanced to its completion), so torn-write
    // injection can tear it.
    crashHook_.step(CrashPointKind::CommitRecord);
    c.advanceTo(done);
    c.setInTx(false);
    ++committedTx_;
    const Tick latency = c.clock() - c.txStart();
    criticalPathSum_ += latency;
    critPathH_.record(latency);
    if (trace_)
        trace_->span("tx", "tx", core, c.txStart(), c.clock());
}

std::uint64_t
System::loadWord(CoreId core, Addr addr)
{
    Core &c = cores_[core];
    std::uint64_t v = 0;
    c.advanceTo(caches_->loadWord(core, addr, v, c.clock()));
    return v;
}

void
System::idle(CoreId core, Tick d)
{
    Core &c = cores_[core];
    HOOP_ASSERT(!c.inTx(), "idle() inside a failure-atomic region");
    c.advanceBy(d);
}

void
System::storeWord(CoreId core, Addr addr, std::uint64_t value)
{
    crashHook_.step(CrashPointKind::Store);
    Core &c = cores_[core];
    c.advanceTo(caches_->storeWord(core, addr, value, c.clock()));
}

void
System::readBytes(CoreId core, Addr addr, void *buf, std::size_t len)
{
    HOOP_ASSERT(isAligned(addr, kWordSize) && len % kWordSize == 0,
                "readBytes requires word alignment");
    auto *out = static_cast<std::uint8_t *>(buf);
    for (std::size_t off = 0; off < len; off += kWordSize) {
        const std::uint64_t v = loadWord(core, addr + off);
        std::memcpy(out + off, &v, kWordSize);
    }
}

void
System::writeBytes(CoreId core, Addr addr, const void *buf,
                   std::size_t len)
{
    HOOP_ASSERT(isAligned(addr, kWordSize) && len % kWordSize == 0,
                "writeBytes requires word alignment");
    const auto *in = static_cast<const std::uint8_t *>(buf);
    for (std::size_t off = 0; off < len; off += kWordSize) {
        std::uint64_t v;
        std::memcpy(&v, in + off, kWordSize);
        storeWord(core, addr + off, v);
    }
}

Addr
System::alloc(CoreId core, std::uint64_t size, std::uint64_t align)
{
    return alloc_->alloc(core, size, align);
}

void
System::pokeInit(Addr addr, const void *buf, std::size_t len)
{
    HOOP_ASSERT(addr + len <= cfg_.homeBytes,
                "pokeInit outside the home region");
    nvm_->poke(addr, buf, len);
}

void
System::debugRead(Addr addr, void *buf, std::size_t len) const
{
    caches_->debugRead(addr, buf, len);
}

std::uint64_t
System::debugLoadWord(Addr addr) const
{
    std::uint64_t v = 0;
    debugRead(addr, &v, kWordSize);
    return v;
}

void
System::scheduleCrashAfterStores(std::uint64_t n)
{
    crashHook_.arm(CrashPointKind::Store, n);
}

void
System::scheduleCrashAtCommit(std::uint64_t n)
{
    crashHook_.arm(CrashPointKind::CommitRecord, n);
}

void
System::crash()
{
    // Resolve torn writes first: every write whose completion lies
    // beyond the power-failure instant loses its non-persisted words.
    // Only then does the volatile state vanish.
    nvm_->applyCrashFaults(maxClock());
    caches_->dropAll();
    ctrl_->crash();
    for (auto &c : cores_)
        c.reset();
    // Volatile-execution crash points die with the machine; an armed
    // RecoveryStep countdown survives so it can fire inside the
    // recovery that follows (crash-during-recovery coverage).
    crashHook_.disarmVolatile();
}

Tick
System::recover(unsigned threads)
{
    HostTimer ht(HostProfiler::kRecovery);
    return ctrl_->recover(threads);
}

void
System::armOrdering(OrderingTracker *tracker)
{
    nvm_->setWriteObserver(tracker);
    ctrl_->setOrderingTracker(tracker);
    if (tracker)
        ctrl_->declareOrderingRules(*tracker);
}

void
System::maintenance()
{
    const Tick now = minClock();
    // Event-driven fast path: skip the poll entirely when every
    // maintenance source is provably idle at `now` — the controller's
    // next time trigger lies in the future and no state trigger is
    // armed (controller maintenance would be a no-op), the scrubber is
    // not due, and the epoch sampler is not due. Each due tick is
    // checked against the same guard the corresponding body uses, so
    // the set of *firing* polls — and therefore every metric,
    // histogram, epoch sample and crash-point schedule — is
    // bit-identical to polling on every transaction.
    if (cfg_.fastPath && !ctrl_->maintenancePressure() &&
        now < ctrl_->nextMaintenanceDue() &&
        !(cfg_.ft.enabled && cfg_.ft.scrubPeriod > 0 &&
          now >= nextScrub_) &&
        !(cfg_.epochSamplePeriod != 0 && cfg_.epochRingCapacity != 0 &&
          now >= nextEpoch_))
        return;
    ctrl_->maintenance(now);
    if (cfg_.ft.enabled && cfg_.ft.scrubPeriod > 0 &&
        now >= nextScrub_) {
        ctrl_->scrub(now);
        nextScrub_ = now + cfg_.ft.scrubPeriod;
    }
    sampleEpoch(now);
}

void
System::sampleEpoch(Tick now)
{
    if (cfg_.epochSamplePeriod == 0 || cfg_.epochRingCapacity == 0 ||
        now < nextEpoch_)
        return;
    const ControllerGauges g = ctrl_->sampleGauges();
    EpochSample s;
    s.at = now;
    s.mappingEntries = g.mappingEntries;
    s.structBytes = g.structBytes;
    s.backpressureStalls = g.backpressureStalls;
    s.inflightWrites = nvm_->faults().inflight();
    s.retiredUnits = g.retiredUnits;
    s.correctedWords = g.correctedWords;
    s.degradedFraction = g.degradedFraction;
    s.txRejected = g.txRejected;
    s.channelBusyTicks = nvm_->channelBusyTicks();
    s.channelWaitTicks = nvm_->channelWaitTicks();
    if (epochRing_.size() < cfg_.epochRingCapacity) {
        epochRing_.push_back(s);
    } else {
        epochRing_[epochHead_] = s;
        epochHead_ = (epochHead_ + 1) % epochRing_.size();
    }
    if (trace_)
        trace_->counter("mapping_entries", now, g.mappingEntries);
    nextEpoch_ = now + cfg_.epochSamplePeriod;
}

std::vector<EpochSample>
System::epochSamples() const
{
    std::vector<EpochSample> out;
    out.reserve(epochRing_.size());
    for (std::size_t i = 0; i < epochRing_.size(); ++i) {
        out.push_back(
            epochRing_[(epochHead_ + i) % epochRing_.size()]);
    }
    return out;
}

void
System::finalize()
{
    const Tick t = maxClock();
    caches_->writebackAll(t);
    ctrl_->drain(t);
}

void
System::beginMeasurement()
{
    // Everything metrics() reports must cover only the measurement
    // interval: NVM traffic and energy, fault-model tallies, cache and
    // hierarchy counters (the LLC miss ratio used to count warmup
    // accesses), the latency histograms and the epoch samples. The
    // controller's *counters* deliberately keep accumulating — GC data
    // reduction (Table IV) is defined over the whole run.
    nvm_->resetCounters();
    nvm_->faults().resetCounters();
    caches_->resetStats();
    ctrl_->stats().resetHistograms();
    committedTx_ = 0;
    criticalPathSum_ = 0;
    stats_.resetAll();
    epochRing_.clear();
    epochHead_ = 0;
    measureStart = maxClock();
    nextEpoch_ = measureStart + cfg_.epochSamplePeriod;
}

RunMetrics
System::metrics() const
{
    RunMetrics m;
    m.transactions = committedTx_;
    m.simTicks = maxClock() - measureStart;
    if (m.simTicks > 0) {
        m.txPerSecond = static_cast<double>(m.transactions) /
                        (static_cast<double>(m.simTicks) * 1e-12);
    }
    if (m.transactions > 0) {
        m.avgCriticalPathNs =
            ticksToNs(criticalPathSum_) /
            static_cast<double>(m.transactions);
        m.bytesWrittenPerTx =
            static_cast<double>(nvm_->bytesWritten()) /
            static_cast<double>(m.transactions);
    }
    m.nvmBytesWritten = nvm_->bytesWritten();
    m.nvmBytesRead = nvm_->bytesRead();
    m.energyPj = nvm_->energy().totalEnergyPj();
    m.llcMissRatio = caches_->llcMissRatio();
    m.critPath = summarizeTicks(&critPathH_);
    m.llcMiss = summarizeTicks(
        caches_->stats().findHistogram("llc_miss_latency_ticks"));
    m.gcPause = summarizeTicks(
        ctrl_->stats().findHistogram("maint_pause_ticks"));
    m.scrubPause = summarizeTicks(
        ctrl_->stats().findHistogram("scrub_pause_ticks"));
    m.eccCorrectedWords = nvm_->faults().wordsEccCorrected();
    m.uncorrectableReads = nvm_->uncorrectableReads();
    m.readRetries = nvm_->readRetries();
    const ControllerGauges g = ctrl_->sampleGauges();
    m.retiredUnits = g.retiredUnits;
    m.txRejected = g.txRejected;
    m.degradedFraction = g.degradedFraction;
    m.channelBusyTicks = nvm_->channelBusyTicks();
    m.channelWaitTicks = nvm_->channelWaitTicks();
    m.drainFences = nvm_->drainFences();
    if (m.simTicks > 0) {
        m.channelUtilization =
            static_cast<double>(m.channelBusyTicks) /
            static_cast<double>(m.simTicks);
    }
    for (const char *role : kRoleNames) {
        const Histogram *h = stats_.findHistogram(
            std::string("role_") + role + "_ticks");
        if (!h || h->count() == 0)
            continue;
        RoleMetrics rm;
        rm.name = role;
        rm.transactions = h->count();
        if (m.simTicks > 0) {
            rm.txPerSecond =
                static_cast<double>(rm.transactions) /
                (static_cast<double>(m.simTicks) * 1e-12);
        }
        rm.latency = summarizeTicks(h);
        m.roles.push_back(std::move(rm));
    }
    m.epochs = epochSamples();
    return m;
}

} // namespace hoopnvm
