#include "cells.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "analysis/order_harness.hh"
#include "common/host_profiler.hh"
#include "hoop/hoop_controller.hh"

namespace perfbench
{

namespace
{

/** Spans of one kind kept per cell in the Chrome trace. */
constexpr std::size_t kMaxSpansPerKind = 256;

/** Maintenance polls shorter than this are not kept as spans. */
constexpr double kMaintSpanMinS = 20e-6;

HoopController *
hoopOf(System &sys)
{
    return sys.scheme() == Scheme::Hoop
               ? static_cast<HoopController *>(&sys.controller())
               : nullptr;
}

/** Raw counter values; LayerCounters holds the window's deltas. */
LayerCounters
readControllerCounters(System &sys)
{
    LayerCounters c;
    const StatSet &s = sys.controller().stats();
    c.logEntries = s.value("log_entries");
    if (HoopController *h = hoopOf(sys)) {
        c.dataSlices = s.value("data_slices");
        c.addrSlices = s.value("addr_slices");
        c.txWords = s.value("tx_words");
        c.mappingHits = s.value("mapping_hits");
        c.parallelReads = s.value("parallel_reads");
        c.stallTicks = s.value("oop_backpressure_stall_ticks");
        const StatSet &g = h->gc().stats();
        c.gcRuns = g.value("runs");
        c.gcNoopRuns = g.value("noop_runs");
        c.gcSlicesScanned = g.value("slices_scanned");
        c.gcHomeLines = g.value("home_lines_written");
    }
    return c;
}

LayerCounters
windowCounters(System &sys, const LayerCounters &start)
{
    LayerCounters c = readControllerCounters(sys);
    c.logEntries -= start.logEntries;
    c.dataSlices -= start.dataSlices;
    c.addrSlices -= start.addrSlices;
    c.txWords -= start.txWords;
    c.mappingHits -= start.mappingHits;
    c.parallelReads -= start.parallelReads;
    c.stallTicks -= start.stallTicks;
    c.gcRuns -= start.gcRuns;
    c.gcNoopRuns -= start.gcNoopRuns;
    c.gcSlicesScanned -= start.gcSlicesScanned;
    c.gcHomeLines -= start.gcHomeLines;
    // Cache statistics restart at beginMeasurement().
    CacheHierarchy &caches = sys.caches();
    for (unsigned core = 0; core < sys.config().numCores; ++core) {
        c.l1Hits += caches.l1(core).stats().value("hits");
        c.l1Misses += caches.l1(core).stats().value("misses");
    }
    c.llcFills = caches.stats().value("llc_fills");
    c.llcWritebacks = caches.stats().value("llc_dirty_writebacks");
    return c;
}

/** Span recorder of one cell; a no-op unless traced. */
class Spans
{
  public:
    Spans(std::vector<Span> &out, bool traced, unsigned tid)
        : out_(out), traced_(traced), tid_(tid)
    {
    }

    void
    add(std::string name, const char *cat, double start, double end,
        std::size_t *kept = nullptr)
    {
        if (!traced_)
            return;
        if (kept && (*kept)++ >= kMaxSpansPerKind)
            return;
        out_.push_back({std::move(name), cat, tid_, start, end - start});
    }

  private:
    std::vector<Span> &out_;
    bool traced_;
    unsigned tid_;
};

bool
verifyAll(System &sys,
          const std::vector<std::unique_ptr<Workload>> &workloads)
{
    // The system is quiescent: batched debug reads are safe.
    sys.caches().beginDebugBatch();
    bool ok = true;
    for (const auto &wl : workloads)
        ok = wl->verify() && ok;
    sys.caches().endDebugBatch();
    return ok;
}

} // namespace

double
hostNow()
{
    // lint: nondet-api-ok (host timing of the benchmark; never feeds simulated state)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch()).count();
}

double
threadCpuNow()
{
    timespec ts{};
    // lint: nondet-api-ok (host CPU time of the benchmark; never feeds simulated state)
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace
{

/** The reference kernel's working set: one random cycle over 16 MiB. */
const std::vector<std::uint32_t> &
calibRing()
{
    static const std::vector<std::uint32_t> ring = [] {
        constexpr std::uint32_t n = 1u << 22;
        std::vector<std::uint32_t> order(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint32_t i = n - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        std::vector<std::uint32_t> next(n);
        for (std::uint32_t i = 0; i < n; ++i)
            next[order[i]] = order[(i + 1) % n];
        return next;
    }();
    return ring;
}

} // namespace

double
refKernelS()
{
    const std::vector<std::uint32_t> &ring = calibRing();
    const double t0 = threadCpuNow();
    std::uint32_t p = 0;
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < 150000; ++i) {
        p = ring[p];
        for (std::uint32_t k = 0; k < 16; ++k)
            h = (h ^ (p + k)) * 1099511628211ULL;
    }
    const double took = threadCpuNow() - t0;
    // Keep the loop from being optimised away.
    volatile std::uint64_t sink = h + p;
    (void)sink;
    return took;
}

double
refSpeed(double kernel_before_s, double kernel_after_s)
{
    const double took = kernel_before_s + kernel_after_s;
    return took > 0.0 ? 2.0 * kRefKernelS / took : 1.0;
}

void
HostLayers::add(const HostLayers &o)
{
    cell += o.cell;
    cellRef += o.cellRef;
    setup += o.setup;
    setupRef += o.setupRef;
    tx += o.tx;
    maintenance += o.maintenance;
    finalize += o.finalize;
    verify += o.verify;
    recovery += o.recovery;
    schedules += o.schedules;
    txNs.insert(txNs.end(), o.txNs.begin(), o.txNs.end());
}

CellResult
runCell(const CellSpec &spec, bool traced, unsigned tid)
{
    CellResult r;
    Spans spans(r.spans, traced, tid);
    std::size_t tx_spans = 0;
    std::size_t maint_spans = 0;
    const double kernel_before = refKernelS();
    const double cpu_cell = threadCpuNow();
    const double t_cell = hostNow();

    auto sys = std::make_unique<System>(spec.cfg, spec.scheme);
    const unsigned n_cores = spec.cfg.numCores;
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        workloads.push_back(spec.factory(*sys, c));
        workloads.back()->setup();
    }
    double t = hostNow();
    r.host.setup = t - t_cell;
    const double setup_cpu = threadCpuNow() - cpu_cell;
    spans.add("setup", "workloads", t_cell, t);

    sys->beginMeasurement();
    const LayerCounters start = readControllerCounters(*sys);
    std::vector<std::uint64_t> done(n_cores, 0);

    // The closed loop: advance the core furthest behind in simulated
    // time (lowest index on ties, as runWorkload does), then poll
    // maintenance once.
    auto run_until = [&](std::uint64_t per_core) {
        std::uint64_t remaining = 0;
        for (unsigned c = 0; c < n_cores; ++c)
            remaining += per_core - done[c];
        while (remaining > 0) {
            unsigned next = n_cores;
            Tick best = ~Tick{0};
            for (unsigned c = 0; c < n_cores; ++c) {
                if (done[c] < per_core && sys->core(c).clock() < best) {
                    best = sys->core(c).clock();
                    next = c;
                }
            }
            if (traced) {
                // HostTimer feeds HostProfiler's components exactly as
                // runWorkload does, so the profile can be read beside
                // the spans.
                const double a = hostNow();
                {
                    HostTimer ht(HostProfiler::kExecute);
                    workloads[next]->runTransaction(done[next]);
                }
                const double b = hostNow();
                {
                    HostTimer ht(HostProfiler::kMaintenance);
                    sys->maintenance();
                }
                const double e = hostNow();
                r.host.tx += b - a;
                r.host.maintenance += e - b;
                r.host.txNs.push_back(static_cast<std::uint32_t>(
                    std::min((b - a) * 1e9, 4e9)));
                spans.add("tx", "sim", a, b, &tx_spans);
                if (e - b >= kMaintSpanMinS)
                    spans.add("maintenance", "sim", b, e, &maint_spans);
            } else {
                workloads[next]->runTransaction(done[next]);
                sys->maintenance();
            }
            ++done[next];
            ++r.txRun;
            --remaining;
        }
    };

    const double t_window = hostNow();
    run_until(spec.txPerCore);
    t = hostNow();
    spans.add("window", "sim", t_window, t);
    if (!traced)
        r.host.tx = t - t_window;

    HoopController *hoop = hoopOf(*sys);
    const bool crash_now = hoop && spec.crashAfterWindow;
    if (crash_now) {
        r.m = sys->metrics();
        r.ctr = windowCounters(*sys, start);
    } else {
        {
            std::optional<HostTimer> ht;
            if (traced)
                ht.emplace(HostProfiler::kDrain);
            sys->finalize();
        }
        const double t_fin = hostNow();
        r.host.finalize = t_fin - t;
        spans.add("finalize", "sim", t, t_fin);

        r.m = sys->metrics();
        r.ctr = windowCounters(*sys, start);

        const double t_ver = hostNow();
        {
            std::optional<HostTimer> ht;
            if (traced)
                ht.emplace(HostProfiler::kVerify);
            r.verified = verifyAll(*sys, workloads);
        }
        t = hostNow();
        r.host.verify = t - t_ver;
        spans.add("verify", "workloads", t_ver, t);
    }

    if (crash_now || (hoop && spec.tailTxPerCore > 0)) {
        const double t_tail = hostNow();
        if (!crash_now)
            run_until(spec.txPerCore + spec.tailTxPerCore);
        const double t_rec = hostNow();
        if (!traced)
            r.host.tx += t_rec - t_tail;
        if (!crash_now)
            spans.add("tail", "sim", t_tail, t_rec);

        sys->crash();
        r.rec.ran = true;
        r.rec.t1 = hoop->modelRecovery(1);
        r.rec.t4 = hoop->modelRecovery(4);
        r.rec.t16 = hoop->modelRecovery(16);
        const RecoveryResult &lr = hoop->lastRecovery();
        r.rec.slicesScanned = lr.slicesScanned;
        r.rec.bytesScanned = lr.bytesScanned;
        r.rec.txReplayed = lr.committedTxReplayed;
        sys->recover(16);
        r.rec.imageOk = verifyAll(*sys, workloads);
        if (crash_now)
            r.verified = r.rec.imageOk;
        t = hostNow();
        r.host.recovery = t - t_rec;
        spans.add("recovery", "hoop", t_rec, t);
    }

    workloads.clear();
    sys.reset();
    t = hostNow();
    r.host.cell = t - t_cell;
    const double cell_cpu = threadCpuNow() - cpu_cell;
    spans.add(spec.label, "cell", t_cell, t);
    const double speed = refSpeed(kernel_before, refKernelS());
    r.host.setupRef = setup_cpu * speed;
    r.host.cellRef = cell_cpu * speed;
    return r;
}

ExploreCell
runExploreCell(ExploreOptions opt, bool traced, unsigned tid)
{
    ExploreCell r;
    Spans spans(r.spans, traced, tid);
    std::size_t kept = 0;
    const double kernel_before = refKernelS();
    const double cpu0 = threadCpuNow();
    const double t0 = hostNow();
    double last = 0.0;
    opt.progress = [&](const CrashSchedule &) {
        const double now = hostNow();
        if (last > 0.0) {
            r.scheduleMs.push_back((now - last) * 1e3);
            spans.add("schedule", "check", last, now, &kept);
        }
        last = now;
    };
    r.report = explore(opt);
    const double t1 = hostNow();
    if (last > 0.0) {
        r.scheduleMs.push_back((t1 - last) * 1e3);
        spans.add("schedule", "check", last, t1, &kept);
    }
    r.host.cell = t1 - t0;
    const double cell_cpu = threadCpuNow() - cpu0;
    r.host.schedules = t1 - t0;
    spans.add(std::string(schemeToken(opt.scheme)) + "/" + opt.workload +
                  (opt.tornWrites ? "/torn" : "/clean"),
              "cell", t0, t1);
    r.host.cellRef = cell_cpu * refSpeed(kernel_before, refKernelS());
    return r;
}

unsigned
checkFidelity(std::uint64_t seed, unsigned *attempted)
{
    WorkloadParams p;
    p.valueBytes = 64;
    p.scale = 256;
    const WorkloadFactory factory = makeWorkload("hashmap", p);
    unsigned mismatches = 0;
    *attempted = 0;
    for (Scheme s : kAllSchemes) {
        SystemConfig cfg = smallCheckConfig(8, seed);
        cfg.gcPeriod = nsToTicks(20'000);
        System ref(cfg, s);
        const RunOutcome want = runWorkload(ref, factory, 40);

        CellSpec spec;
        spec.label = "fidelity";
        spec.scheme = s;
        spec.factory = factory;
        spec.cfg = cfg;
        spec.txPerCore = 40;
        const CellResult got = runCell(spec, false, 0);

        Digest a;
        Digest b;
        a.add(want.metrics);
        b.add(got.m);
        ++*attempted;
        if (a.value() != b.value() || want.verified != got.verified ||
            !got.verified) {
            std::fprintf(stderr, "fidelity: %s differs from runWorkload\n",
                         schemeName(s));
            ++mismatches;
        }
    }
    return mismatches;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char ch : s) {
        h_ ^= ch;
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(const LatencySummary &s)
{
    add(s.count);
    add(s.p50Ns);
    add(s.p95Ns);
    add(s.p99Ns);
    add(s.p999Ns);
    add(s.maxNs);
    add(s.meanNs);
    add(static_cast<std::uint64_t>(s.p50Saturated | s.p95Saturated << 1 |
                                   s.p99Saturated << 2 |
                                   s.p999Saturated << 3));
}

void
Digest::add(const RunMetrics &m)
{
    add(m.transactions);
    add(m.simTicks);
    add(m.txPerSecond);
    add(m.avgCriticalPathNs);
    add(m.nvmBytesWritten);
    add(m.nvmBytesRead);
    add(m.bytesWrittenPerTx);
    add(m.energyPj);
    add(m.llcMissRatio);
    add(m.critPath);
    add(m.llcMiss);
    add(m.gcPause);
    add(m.scrubPause);
    add(m.eccCorrectedWords);
    add(m.uncorrectableReads);
    add(m.readRetries);
    add(m.retiredUnits);
    add(m.txRejected);
    add(m.degradedFraction);
    add(m.channelBusyTicks);
    add(m.channelWaitTicks);
    add(m.drainFences);
    add(m.channelUtilization);
    for (const RoleMetrics &r : m.roles) {
        add(r.name);
        add(r.transactions);
        add(r.txPerSecond);
        add(r.latency);
    }
    for (const EpochSample &e : m.epochs) {
        add(e.at);
        add(e.mappingEntries);
        add(e.structBytes);
        add(e.backpressureStalls);
        add(e.inflightWrites);
        add(e.retiredUnits);
        add(e.correctedWords);
        add(e.degradedFraction);
        add(e.txRejected);
        add(e.channelBusyTicks);
        add(e.channelWaitTicks);
    }
}

void
Digest::add(const LayerCounters &c)
{
    for (std::uint64_t v :
         {c.l1Hits, c.l1Misses, c.llcFills, c.llcWritebacks, c.dataSlices,
          c.addrSlices, c.txWords, c.mappingHits, c.parallelReads,
          c.stallTicks, c.gcRuns, c.gcNoopRuns, c.gcSlicesScanned,
          c.gcHomeLines, c.logEntries})
        add(v);
}

void
Digest::add(const RecoveryProbe &r)
{
    for (std::uint64_t v :
         {std::uint64_t{r.ran}, r.t1, r.t4, r.t16, r.slicesScanned,
          r.bytesScanned, r.txReplayed, std::uint64_t{r.imageOk}})
        add(v);
}

void
Digest::add(const ExploreReport &r)
{
    for (std::uint64_t v : r.eventsProfiled)
        add(v);
    add(r.schedulesRun);
    add(r.crashesFired);
    add(r.recoveryCrashesFired);
    for (std::uint64_t v : r.schedulesPerKind)
        add(v);
    for (std::uint64_t v : r.firedPerKind)
        add(v);
    add(static_cast<std::uint64_t>(r.violations.size()));
    for (const OrderingRuleReport &rr : r.orderingRules) {
        add(rr.name);
        add(rr.fires);
        add(rr.depsChecked);
        add(rr.violations);
    }
    add(r.orderingViolations);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
runPool(std::size_t n, unsigned jobs,
        const std::function<void(std::size_t, unsigned)> &task)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr failure;
    auto worker = [&](unsigned w) {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                task(i, w);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu);
                if (!failure)
                    failure = std::current_exception();
            }
        }
    };
    const unsigned k =
        static_cast<unsigned>(std::min<std::size_t>(jobs ? jobs : 1, n));
    std::vector<std::thread> threads;
    threads.reserve(k);
    for (unsigned w = 1; w < k; ++w)
        threads.emplace_back(worker, w);
    worker(0);
    for (std::thread &th : threads)
        th.join();
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace perfbench
