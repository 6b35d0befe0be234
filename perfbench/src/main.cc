/**
 * @file
 * perfbench: the repository's benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--tiny] [--trace-out FILE]
 *
 * Workloads (see README.md for why each exists):
 *   txn_mix         Table III suite on all seven schemes (Figs. 7/8)
 *   gc_recovery     HOOP OOP-region fill with GC, crash, recovery (Fig. 11)
 *   read_write_mix  interference roles, HOOP vs Opt-Redo vs LSM
 *   crash_sweep     explore() with the ordering analyzer armed
 *
 * One repetition runs the workload's fixed set of cells. After one
 * warm-up repetition the benchmark repeats it until --seconds have
 * passed (measuring at least two), and checks that every repetition
 * gives the same sim_digest. With --trace 0 the last stdout line is the
 * end-to-end JSON; with --trace 1 repetitions alternate untraced and
 * traced, and it is the per-layer JSON. Exit code 0 on a finished run
 * (correctness is in the JSON), 2 on a usage error.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/host_profiler.hh"
#include "common/json.hh"
#include "cells.hh"

using namespace perfbench;

namespace
{

// ---------------------------------------------------------------- flags

/** Worker threads: the benchmark is sized for a 4-core host. */
constexpr unsigned kMaxJobs = 4;

struct Flags
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string traceOut;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "txn_mix|gc_recovery|read_write_mix|crash_sweep --seed N "
                 "--seconds S --trace 0|1 [--tiny] "
                 "[--trace-out FILE]\n",
                 msg);
    return 2;
}

bool
parseU64(const char *s, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end != '\0' || *s == '-')
        return false;
    *out = v;
    return true;
}

/** Every flag takes a value except --tiny; all are checked. */
bool
parseFlags(int argc, char **argv, Flags *f, std::string *err)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            f->tiny = true;
            continue;
        }
        if (i + 1 >= argc) {
            *err = "missing value for " + a;
            return false;
        }
        const char *v = argv[++i];
        std::uint64_t n = 0;
        if (a == "--workload") {
            f->workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            if (!parseU64(v, &f->seed)) {
                *err = "bad --seed";
                return false;
            }
        } else if (a == "--seconds") {
            if (!parseU64(v, &n) || n == 0 || n > 3600) {
                *err = "bad --seconds";
                return false;
            }
            f->seconds = static_cast<double>(n);
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                *err = "--trace takes 0 or 1";
                return false;
            }
            f->trace = v[0] == '1';
        } else if (a == "--trace-out") {
            f->traceOut = v;
        } else {
            *err = "unknown flag " + a;
            return false;
        }
    }
    if (!have_workload) {
        *err = "--workload is required";
        return false;
    }
    return true;
}

// ---------------------------------------------------------- workloads

/** Lower-case scheme names used in metric names. */
const char *
schemeKey(Scheme s)
{
    switch (s) {
      case Scheme::OptRedo: return "opt-redo";
      case Scheme::OptUndo: return "opt-undo";
      case Scheme::Osp: return "osp";
      case Scheme::Lsm: return "lsm";
      case Scheme::Lad: return "lad";
      case Scheme::Hoop: return "hoop";
      case Scheme::Native: return "ideal";
    }
    return "?";
}

/**
 * gc_recovery's transactions: each stores a chunk of consecutive words
 * at a seeded random chunk of the core's private region, so every
 * transaction is a multi-word, multi-slice update and repeated chunks
 * give GC updates to coalesce. The shadow mirrors committed values.
 */
class OopFillWorkload : public Workload
{
  public:
    OopFillWorkload(TxContext c, std::uint64_t region_words,
                    std::uint64_t words_per_tx)
        : Workload(std::move(c)), shadow_(region_words, 0),
          vals_(words_per_tx)
    {
    }

    const char *name() const override { return "oop_fill"; }

    void
    setup() override
    {
        base_ = ctx.alloc(shadow_.size() * kWordSize, kCacheLineSize);
        ctx.init(base_, shadow_.data(), shadow_.size() * kWordSize);
    }

    void
    runTransaction(std::uint64_t) override
    {
        const std::uint64_t chunks = shadow_.size() / vals_.size();
        const std::uint64_t first =
            ctx.rng().nextBounded(chunks) * vals_.size();
        for (std::uint64_t &v : vals_)
            v = ctx.rng().next();
        ctx.txBegin();
        ctx.write(base_ + first * kWordSize, vals_.data(),
                  vals_.size() * kWordSize);
        commitTx([this, first] {
            std::copy(vals_.begin(), vals_.end(),
                      shadow_.begin() + static_cast<std::ptrdiff_t>(first));
        });
    }

    bool
    verify() const override
    {
        std::vector<std::uint64_t> got(shadow_.size());
        ctx.debugRead(base_, got.data(), got.size() * kWordSize);
        return got == shadow_;
    }

  private:
    std::vector<std::uint64_t> shadow_;
    std::vector<std::uint64_t> vals_; ///< the running transaction's values
    Addr base_ = 0;
};

/** The workload's fixed work: cells plus explore() sweeps. */
struct Plan
{
    std::vector<CellSpec> cells;
    std::vector<ExploreOptions> sweeps;
};

/**
 * Table II with bench-sized regions: the values of the bench harness's
 * paperConfig(), copied so that edits to bench/ cannot change what this
 * benchmark measures.
 */
SystemConfig
paperConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.homeBytes = miB(256);
    cfg.oopBytes = miB(32);
    cfg.auxBytes = miB(256) + miB(16);
    cfg.seed = seed;
    return cfg;
}

CellSpec
cell(Scheme s, const std::string &wl_label, WorkloadFactory factory,
     const SystemConfig &cfg, std::uint64_t tx_per_core)
{
    CellSpec c;
    c.label = std::string(schemeKey(s)) + "/" + wl_label;
    c.scheme = s;
    c.factory = std::move(factory);
    c.cfg = cfg;
    c.txPerCore = tx_per_core;
    if (s == Scheme::Hoop)
        c.tailTxPerCore = std::max<std::uint64_t>(1, tx_per_core / 8);
    return c;
}

Plan
txnMixPlan(std::uint64_t seed, bool tiny)
{
    // Transactions per core sized so each HOOP cell simulates ~30 ms,
    // in which the 10 ms periodic GC fires three times (twice on its
    // period, once more at the final drain). btree-64B is the exception:
    // its host cost per transaction grows with the tree, so its window
    // is ~15 ms (one periodic run plus the drain). The most expensive
    // column comes first so the pool starts it first.
    struct Col
    {
        const char *label;
        const char *name;
        std::size_t valueBytes;
        std::uint64_t txPerCore;
    };
    const Col cols[] = {
        {"btree-64B", "btree", 64, 5000},
        {"hashmap-1KB", "hashmap", 1024, 2100},
        {"ycsb-1KB", "ycsb", 1024, 4400},
        {"tpcc", "tpcc", 64, 1700},
    };
    Plan plan;
    const SystemConfig cfg = paperConfig(seed);
    for (const Col &col : cols) {
        WorkloadParams p;
        p.valueBytes = col.valueBytes;
        p.scale = tiny ? 256 : 2048;
        const std::uint64_t n = tiny ? 20 : col.txPerCore;
        for (Scheme s : kAllSchemes)
            plan.cells.push_back(
                cell(s, col.label, makeWorkload(col.name, p), cfg, n));
    }
    return plan;
}

Plan
readWriteMixPlan(std::uint64_t seed, bool tiny)
{
    WorkloadParams p;
    p.valueBytes = 1024;
    p.scale = tiny ? 128 : 1024;
    p.interferenceSaturation = 1.0;
    p.interferenceReadMix = 0.75;
    const SystemConfig cfg = paperConfig(seed);
    Plan plan;
    for (Scheme s : {Scheme::Hoop, Scheme::OptRedo, Scheme::Lsm})
        plan.cells.push_back(cell(s, "interference",
                                  makeWorkload("interference", p), cfg,
                                  tiny ? 20 : 1500));
    return plan;
}

Plan
gcRecoveryPlan(std::uint64_t seed, bool tiny)
{
    // GC on at the default 10 ms period, 25 GB/s channel. HOOP commits
    // ~1 GB/s of slices here, so the 8 MB OOP region fills between
    // periodic runs and pressure GC fires too. The ~30 ms window writes
    // ~3.5x the region's capacity. With 512 KB blocks GC frees the
    // region in small steps, so the crash image is ~70% full whatever
    // the seed (2 MB blocks leave 5-15% and vary with it).
    SystemConfig cfg = paperConfig(seed);
    cfg.oopBytes = tiny ? miB(4) : miB(8);
    cfg.oopBlockBytes = kiB(512);
    const std::uint64_t region_words = (tiny ? kiB(64) : miB(1)) / kWordSize;
    const std::uint64_t tx_per_core = tiny ? 200 : 3000;
    auto fill = [region_words](std::uint64_t words_per_tx) {
        return [region_words, words_per_tx](System &sys, CoreId c) {
            return std::make_unique<OopFillWorkload>(
                TxContext(sys, c,
                          sys.config().seed * 7919 + c * 104729 + 1),
                region_words, words_per_tx);
        };
    };
    Plan plan;
    CellSpec hoop = cell(Scheme::Hoop, "oop_fill", fill(64), cfg,
                         tx_per_core);
    hoop.tailTxPerCore = 0;
    hoop.crashAfterWindow = true;
    plan.cells.push_back(hoop);
    plan.cells.push_back(
        cell(Scheme::OptRedo, "oop_fill", fill(64), cfg, tx_per_core));

    // Backpressure: 8 KB transactions span several 4 KB blocks of a
    // 1 MB region, so the region runs out mid-transaction before
    // pressure GC (at one free block) can run between transactions,
    // and the writer stalls on on-demand GC (§IV-F). The stalls put
    // this cell's latencies far from the others', so it feeds only the
    // per-layer metrics.
    SystemConfig small = cfg;
    small.oopBytes = tiny ? kiB(256) : miB(1);
    small.oopBlockBytes = kiB(4);
    CellSpec stall = cell(Scheme::Hoop, "oop_fill-8KB", fill(1024), small,
                          tiny ? 12 : 64);
    stall.tailTxPerCore = 0;
    stall.endToEnd = false;
    plan.cells.push_back(stall);
    return plan;
}

Plan
crashSweepPlan(std::uint64_t seed, bool tiny)
{
    Plan plan;
    WorkloadParams p;
    p.valueBytes = 64;
    p.scale = 128;
    for (Scheme s : {Scheme::Hoop, Scheme::OptRedo}) {
        for (const char *wl : {"vector", "btree", "tpcc"}) {
            for (bool torn : {false, true}) {
                ExploreOptions o;
                o.scheme = s;
                o.workload = wl;
                o.seed = seed;
                o.budget = tiny ? 6 : 40;
                o.numCores = 8;
                o.tornWrites = torn;
                o.ordering = true;
                plan.sweeps.push_back(o);
            }
            // explore() reports no simulated performance, so the same
            // (scheme, workload) also runs as a cell on the Table II
            // system for the end-to-end metrics.
            plan.cells.push_back(cell(s, wl, makeWorkload(wl, p),
                                      paperConfig(seed),
                                      tiny ? 20 : 400));
        }
    }
    return plan;
}

bool
makePlan(const std::string &w, std::uint64_t seed, bool tiny, Plan *out)
{
    if (w == "txn_mix")
        *out = txnMixPlan(seed, tiny);
    else if (w == "read_write_mix")
        *out = readWriteMixPlan(seed, tiny);
    else if (w == "gc_recovery")
        *out = gcRecoveryPlan(seed, tiny);
    else if (w == "crash_sweep")
        *out = crashSweepPlan(seed, tiny);
    else
        return false;
    return true;
}

// ------------------------------------------------------- one repetition

struct Rep
{
    double wallS = 0.0;
    double peakRssMb = 0.0; ///< process peak RSS during this repetition
    bool traced = false;
    std::vector<CellResult> cells;
    std::vector<ExploreCell> sweeps;
    HostLayers host;
    double gcProfS = 0.0;   ///< HostProfiler kGc delta (traced reps)
    double profiledS = 0.0; ///< HostProfiler top-level components
    std::string digest;
};

double
profilerS(HostProfiler::Component c)
{
    return static_cast<double>(HostProfiler::totalNs(c)) * 1e-9;
}

/** Top-level (non-nested) HostProfiler components, seconds. */
double
profilerTopS()
{
    return profilerS(HostProfiler::kExecute) +
           profilerS(HostProfiler::kMaintenance) +
           profilerS(HostProfiler::kDrain) +
           profilerS(HostProfiler::kVerify) +
           profilerS(HostProfiler::kRecovery);
}

/**
 * Hand the allocator's free memory back to the kernel, then reset the
 * kernel's peak-RSS mark (VmHWM) to the current RSS, so each repetition
 * reads its own peak from the same start. Without the trim, how much
 * freed memory the allocator keeps from earlier repetitions varies from
 * run to run. Without the reset (not Linux, or refused) the peak simply
 * covers the process so far.
 */
void
resetPeakRss()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS in MiB since the last resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Rep
runRep(const Plan &plan, unsigned jobs, bool traced)
{
    Rep rep;
    rep.traced = traced;
    rep.cells.resize(plan.cells.size());
    rep.sweeps.resize(plan.sweeps.size());
    const double gc0 = profilerS(HostProfiler::kGc);
    const double top0 = profilerTopS();
    resetPeakRss();
    const double t0 = hostNow();
    // Sweeps and cells run as two phases, so which tasks share the
    // process (and its peak RSS) does not depend on thread timing.
    runPool(plan.sweeps.size(), jobs, [&](std::size_t i, unsigned w) {
        rep.sweeps[i] = runExploreCell(plan.sweeps[i], traced, w);
    });
    runPool(plan.cells.size(), jobs, [&](std::size_t i, unsigned w) {
        rep.cells[i] = runCell(plan.cells[i], traced, w);
    });
    rep.wallS = hostNow() - t0;
    rep.peakRssMb = peakRssMb();
    rep.gcProfS = profilerS(HostProfiler::kGc) - gc0;
    rep.profiledS = profilerTopS() - top0;

    Digest d;
    for (const CellResult &c : rep.cells) {
        rep.host.add(c.host);
        d.add(c.m);
        d.add(static_cast<std::uint64_t>(c.verified));
        d.add(c.ctr);
        d.add(c.rec);
    }
    for (const ExploreCell &s : rep.sweeps) {
        rep.host.add(s.host);
        d.add(s.report);
    }
    rep.digest = d.hex();
    return rep;
}

// --------------------------------------------------------------- stats

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    std::size_t n = 0;
    for (double x : v) {
        if (x > 0.0) {
            s += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(s / static_cast<double>(n)) : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Workload label of a cell ("hoop/ycsb-1KB" -> "ycsb-1KB"). */
std::string
columnOf(const CellSpec &c)
{
    return c.label.substr(c.label.find('/') + 1);
}

// ------------------------------------------------------------- metrics

/** Ordered metric list: name -> (value, unit). */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> v;

    void
    set(const std::string &name, double value, const char *unit)
    {
        v.push_back({name, {value, unit}});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < v.size(); ++i) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", v[i].second.first);
            if (i)
                out += ", ";
            out += jsonQuote(v[i].first) + ": {\"value\": " + num +
                   ", \"unit\": " + jsonQuote(v[i].second.second) + "}";
        }
        return out + "}";
    }
};

/** The simulated end-to-end figures of one repetition. */
struct SimSummary
{
    double mtxPerS = 0.0;
    double critP50 = 0.0;
    double critP99 = 0.0;
    double writeBytesPerTx = 0.0;
    double vsRedo = 0.0;
    double vsIdealCrit = 0.0;
    double recoveryMs = 0.0;
    double readMissP99 = 0.0;
    std::uint64_t critSamplesMin = 0;
};

SimSummary
simSummary(const Plan &plan, const Rep &rep)
{
    SimSummary s;
    std::vector<double> tput, p50, p99, wb, rec, rmiss;
    std::map<std::string, double> hoop_tps, redo_tps, hoop_crit,
        ideal_crit;
    s.critSamplesMin = ~std::uint64_t{0};
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const CellSpec &spec = plan.cells[i];
        const CellResult &c = rep.cells[i];
        const std::string col = columnOf(spec);
        if (!spec.endToEnd)
            continue;
        if (spec.scheme == Scheme::OptRedo)
            redo_tps[col] = c.m.txPerSecond;
        if (spec.scheme == Scheme::Native)
            ideal_crit[col] = c.m.avgCriticalPathNs;
        if (spec.scheme != Scheme::Hoop)
            continue;
        hoop_tps[col] = c.m.txPerSecond;
        hoop_crit[col] = c.m.avgCriticalPathNs;
        tput.push_back(c.m.txPerSecond / 1e6);
        p50.push_back(c.m.critPath.p50Ns);
        p99.push_back(c.m.critPath.p99Ns);
        s.critSamplesMin = std::min(s.critSamplesMin, c.m.critPath.count);
        wb.push_back(c.m.bytesWrittenPerTx);
        rmiss.push_back(c.m.llcMiss.p99Ns);
        if (c.rec.ran)
            rec.push_back(ticksToMs(c.rec.t16));
    }
    std::vector<double> vs_redo, vs_ideal;
    for (const auto &[col, tps] : hoop_tps) {
        if (redo_tps.count(col))
            vs_redo.push_back(ratio(tps, redo_tps[col]));
        if (ideal_crit.count(col))
            vs_ideal.push_back(ratio(hoop_crit[col], ideal_crit[col]));
    }
    s.mtxPerS = geomean(tput);
    s.critP50 = geomean(p50);
    s.critP99 = geomean(p99);
    s.writeBytesPerTx = geomean(wb);
    s.vsRedo = geomean(vs_redo);
    s.vsIdealCrit = vs_ideal.empty() ? 0.0 : geomean(vs_ideal) - 1.0;
    s.recoveryMs = geomean(rec);
    s.readMissP99 = geomean(rmiss);
    if (tput.empty())
        s.critSamplesMin = 0;
    return s;
}

/**
 * Ordering-rule fires per scheme, summed over that scheme's sweeps. A
 * rule can sit idle on one workload, so a dead rule is one with no
 * fires over all of them.
 */
std::map<Scheme, std::map<std::string, std::uint64_t>>
ruleFires(const Plan &plan, const Rep &rep)
{
    std::map<Scheme, std::map<std::string, std::uint64_t>> fires;
    for (std::size_t i = 0; i < plan.sweeps.size(); ++i) {
        const ExploreReport &r = rep.sweeps[i].report;
        for (const OrderingRuleReport &rr : r.orderingRules)
            fires[plan.sweeps[i].scheme][rr.name] += rr.fires;
    }
    return fires;
}

/** Per-layer metrics from one traced repetition (host) and its sims. */
Metrics
layerMetrics(const Plan &plan, const Rep &rep, double overhead_ratio)
{
    Metrics out;
    const HostLayers &h = rep.host;
    std::uint64_t tx_run = 0;
    for (const CellResult &c : rep.cells)
        tx_run += c.txRun;
    std::vector<double> tx_ns(h.txNs.begin(), h.txNs.end());

    out.set("workloads.setup_host_s", h.setup, "s");
    out.set("workloads.verify_host_s", h.verify, "s");
    out.set("sim.tx_host_ns_p50", quantile(tx_ns, 0.50), "ns");
    out.set("sim.tx_host_ns_p99", quantile(tx_ns, 0.99), "ns");
    out.set("sim.host_ns_per_sim_tx",
            ratio((h.tx + h.maintenance) * 1e9, static_cast<double>(tx_run)),
            "ns");
    out.set("sim.maintenance_host_s", h.maintenance, "s");
    out.set("sim.finalize_host_s", h.finalize, "s");

    // Simulated layer counters over the HOOP cells.
    LayerCounters k;
    RunMetrics sum;
    std::vector<double> llc_p99, gc_p99, role_pr, role_la, r1, r4, r16;
    std::uint64_t rec_slices = 0, rec_tx = 0;
    std::map<Scheme, std::vector<double>> scheme_tps;
    std::map<Scheme, double> scheme_host;
    std::uint64_t redo_logs = 0, redo_tx = 0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const CellSpec &spec = plan.cells[i];
        const CellResult &c = rep.cells[i];
        if (spec.scheme != Scheme::Hoop) {
            scheme_tps[spec.scheme].push_back(c.m.txPerSecond);
            scheme_host[spec.scheme] += c.host.cell;
            if (spec.scheme == Scheme::OptRedo) {
                redo_logs += c.ctr.logEntries;
                redo_tx += c.m.transactions;
            }
            continue;
        }
        const LayerCounters &x = c.ctr;
        k.l1Hits += x.l1Hits;
        k.l1Misses += x.l1Misses;
        k.llcFills += x.llcFills;
        k.llcWritebacks += x.llcWritebacks;
        k.dataSlices += x.dataSlices;
        k.addrSlices += x.addrSlices;
        k.txWords += x.txWords;
        k.mappingHits += x.mappingHits;
        k.parallelReads += x.parallelReads;
        k.stallTicks += x.stallTicks;
        k.gcRuns += x.gcRuns;
        k.gcNoopRuns += x.gcNoopRuns;
        k.gcSlicesScanned += x.gcSlicesScanned;
        k.gcHomeLines += x.gcHomeLines;
        sum.transactions += c.m.transactions;
        sum.simTicks += c.m.simTicks;
        sum.nvmBytesWritten += c.m.nvmBytesWritten;
        sum.nvmBytesRead += c.m.nvmBytesRead;
        sum.energyPj += c.m.energyPj;
        sum.channelBusyTicks += c.m.channelBusyTicks;
        sum.channelWaitTicks += c.m.channelWaitTicks;
        sum.drainFences += c.m.drainFences;
        sum.llcMissRatio += c.m.llcMissRatio;
        llc_p99.push_back(c.m.llcMiss.p99Ns);
        if (c.m.gcPause.count)
            gc_p99.push_back(c.m.gcPause.p99Ns);
        for (const RoleMetrics &r : c.m.roles) {
            if (r.name == "point_read")
                role_pr.push_back(r.latency.p99Ns);
            if (r.name == "log_append")
                role_la.push_back(r.latency.p99Ns);
        }
        if (c.rec.ran) {
            r1.push_back(ticksToMs(c.rec.t1));
            r4.push_back(ticksToMs(c.rec.t4));
            r16.push_back(ticksToMs(c.rec.t16));
            rec_slices += c.rec.slicesScanned;
            rec_tx += c.rec.txReplayed;
        }
    }
    const double tx = static_cast<double>(sum.transactions);
    const std::size_t n_hoop = llc_p99.size();
    out.set("sim.point_read_p99_ns", geomean(role_pr), "ns");
    out.set("sim.log_append_p99_ns", geomean(role_la), "ns");
    out.set("mem.l1_hit_ratio",
            ratio(static_cast<double>(k.l1Hits),
                  static_cast<double>(k.l1Hits + k.l1Misses)),
            "ratio");
    out.set("mem.llc_miss_ratio",
            n_hoop ? sum.llcMissRatio / static_cast<double>(n_hoop) : 0.0,
            "ratio");
    out.set("mem.llc_miss_p99_ns", geomean(llc_p99), "ns");
    out.set("mem.llc_writebacks_per_tx",
            ratio(static_cast<double>(k.llcWritebacks), tx), "count");
    out.set("hoop.mapping_hit_ratio",
            ratio(static_cast<double>(k.mappingHits),
                  static_cast<double>(k.llcFills)),
            "ratio");
    out.set("hoop.parallel_read_ratio",
            ratio(static_cast<double>(k.parallelReads),
                  static_cast<double>(k.llcFills)),
            "ratio");
    out.set("hoop.slices_per_tx",
            ratio(static_cast<double>(k.dataSlices + k.addrSlices), tx),
            "count");
    out.set("hoop.words_per_data_slice",
            ratio(static_cast<double>(k.txWords),
                  static_cast<double>(k.dataSlices)),
            "count");
    out.set("hoop.backpressure_stall_ns", ticksToNs(k.stallTicks), "ns");
    out.set("hoop.gc.runs", static_cast<double>(k.gcRuns), "count");
    out.set("hoop.gc.noop_ratio",
            ratio(static_cast<double>(k.gcNoopRuns),
                  static_cast<double>(k.gcRuns)),
            "ratio");
    out.set("hoop.gc.coalesce_ratio",
            ratio(static_cast<double>(k.gcHomeLines),
                  static_cast<double>(k.gcSlicesScanned)),
            "ratio");
    out.set("hoop.gc.pause_p99_ns", geomean(gc_p99), "ns");
    out.set("hoop.gc.host_s", rep.gcProfS, "s");
    out.set("hoop.recovery.sim_ms.t1", geomean(r1), "ms");
    out.set("hoop.recovery.sim_ms.t4", geomean(r4), "ms");
    out.set("hoop.recovery.sim_ms.t16", geomean(r16), "ms");
    out.set("hoop.recovery.slices_scanned", static_cast<double>(rec_slices),
            "count");
    out.set("hoop.recovery.tx_replayed", static_cast<double>(rec_tx),
            "count");
    out.set("hoop.recovery.host_s", h.recovery, "s");

    for (Scheme s : kAllSchemes) {
        if (s == Scheme::Hoop)
            continue;
        const std::string base = std::string("baselines.") + schemeKey(s);
        out.set(base + ".sim_tx_per_s", geomean(scheme_tps[s]), "1/s");
        out.set(base + ".cell_host_s", scheme_host[s], "s");
    }
    out.set("baselines.opt-redo.log_appends_per_tx",
            ratio(static_cast<double>(redo_logs),
                  static_cast<double>(redo_tx)),
            "count");

    out.set("nvm.bytes_written_per_tx",
            ratio(static_cast<double>(sum.nvmBytesWritten), tx), "B");
    out.set("nvm.bytes_read_per_tx",
            ratio(static_cast<double>(sum.nvmBytesRead), tx), "B");
    out.set("nvm.energy_nj_per_tx", ratio(sum.energyPj * 1e-3, tx), "nJ");
    out.set("nvm.channel_utilization",
            ratio(static_cast<double>(sum.channelBusyTicks),
                  static_cast<double>(sum.simTicks)),
            "ratio");
    out.set("nvm.channel_wait_ns_per_tx",
            ratio(ticksToNs(sum.channelWaitTicks), tx), "ns");
    out.set("nvm.drain_fences", static_cast<double>(sum.drainFences),
            "count");

    // check / analysis (crash_sweep)
    std::vector<double> sched_ms;
    std::uint64_t run = 0, fired = 0, violations = 0, ord = 0;
    for (const ExploreCell &e : rep.sweeps) {
        sched_ms.insert(sched_ms.end(), e.scheduleMs.begin(),
                        e.scheduleMs.end());
        run += e.report.schedulesRun;
        fired += e.report.crashesFired;
        violations += e.report.violations.size();
        ord += e.report.orderingViolations;
    }
    std::uint64_t dead = 0, fires = 0;
    for (const auto &[scheme, rules] : ruleFires(plan, rep)) {
        for (const auto &[name, n] : rules) {
            dead += n == 0;
            fires += n;
        }
    }
    out.set("check.schedule_host_ms_p50", quantile(sched_ms, 0.50), "ms");
    out.set("check.schedule_host_ms_p99", quantile(sched_ms, 0.99), "ms");
    out.set("check.fired_ratio",
            ratio(static_cast<double>(fired), static_cast<double>(run)),
            "ratio");
    out.set("check.violations", static_cast<double>(violations), "count");
    out.set("analysis.ordering_violations", static_cast<double>(ord),
            "count");
    out.set("analysis.dead_rules", static_cast<double>(dead), "count");
    out.set("analysis.rule_fires", static_cast<double>(fires), "count");

    out.set("trace.overhead_ratio", overhead_ratio, "ratio");
    out.set("host.profiler_unattributed_ratio",
            ratio(h.cell - rep.profiledS, h.cell), "ratio");
    return out;
}

// ---------------------------------------------------- correctness tally

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, std::uint64_t n = 1)
    {
        attempted += n;
        if (!ok)
            failed += n;
    }
};

/**
 * Count every correctness check of a repetition: verify on each cell,
 * the recovered image, rejected transactions, explore violations,
 * ordering violations and dead rules.
 */
void
tallyRep(const Plan &plan, const Rep &rep, Tally *t)
{
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const CellResult &c = rep.cells[i];
        t->check(c.verified);
        if (c.rec.ran)
            t->check(c.rec.imageOk);
        t->check(c.m.txRejected == 0);
    }
    for (const ExploreCell &e : rep.sweeps) {
        const ExploreReport &r = e.report;
        t->attempted += r.schedulesRun;
        t->failed += std::min<std::uint64_t>(r.violations.size(),
                                             r.schedulesRun);
        t->check(r.orderingViolations == 0);
    }
    for (const auto &[scheme, rules] : ruleFires(plan, rep))
        for (const auto &[name, n] : rules)
            t->check(n > 0);
}

// ------------------------------------------------------------- reports

void
printCells(const Plan &plan, const Rep &rep)
{
    std::printf("%-26s %10s %10s %10s %10s %9s %4s\n", "cell", "sim ms",
                "Mtx/s", "crit p50", "crit p99", "host s", "ok");
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const CellResult &c = rep.cells[i];
        std::printf("%-26s %10.3f %10.4f %10.0f %10.0f %9.3f %4s\n",
                    plan.cells[i].label.c_str(), ticksToMs(c.m.simTicks),
                    c.m.txPerSecond / 1e6, c.m.critPath.p50Ns,
                    c.m.critPath.p99Ns, c.host.cell,
                    c.verified && (!c.rec.ran || c.rec.imageOk) ? "yes"
                                                                : "NO");
    }
    for (std::size_t i = 0; i < plan.sweeps.size(); ++i) {
        const ExploreOptions &o = plan.sweeps[i];
        const ExploreReport &r = rep.sweeps[i].report;
        std::printf("explore %-8s %-6s %-5s schedules %3llu fired %3llu "
                    "violations %zu ordering %llu host %.3f s\n",
                    schemeKey(o.scheme), o.workload.c_str(),
                    o.tornWrites ? "torn" : "clean",
                    static_cast<unsigned long long>(r.schedulesRun),
                    static_cast<unsigned long long>(r.crashesFired),
                    r.violations.size(),
                    static_cast<unsigned long long>(r.orderingViolations),
                    rep.sweeps[i].host.cell);
    }
}

void
printPaperReference(const std::string &workload, const Rep &rep,
                    const SimSummary &s)
{
    auto line = [](const char *what, double measured, double paper,
                   const char *unit) {
        std::printf("  %-44s measured %9.3f%s paper %8.3f%s "
                    "rel. error %+.1f%%\n",
                    what, measured, unit, paper, unit,
                    100.0 * (measured - paper) / paper);
    };
    std::printf("paper reference (the timing model has not been validated "
                "against real hardware):\n");
    if (workload == "txn_mix") {
        line("HOOP tx/s / Opt-Redo tx/s (Fig. 7a)", s.vsRedo, 1.743, "");
        line("HOOP critical path vs Ideal (Fig. 7b)", 100.0 * s.vsIdealCrit,
             24.1, "%");
    }
    if (workload == "gc_recovery") {
        for (const CellResult &c : rep.cells) {
            if (!c.rec.ran || c.rec.bytesScanned == 0)
                continue;
            const double scaled = ticksToMs(c.rec.t16) *
                                  (1024.0 * 1024.0 * 1024.0) /
                                  static_cast<double>(c.rec.bytesScanned);
            line("recovery, 16 thr, scaled to 1 GB @ 25 GB/s (Fig. 11)",
                 scaled, 47.0, " ms");
        }
    }
    if (workload != "txn_mix" && workload != "gc_recovery")
        std::printf("  (no paper figure for this workload)\n");
}

/** Per-layer self-time table of one traced repetition. */
void
printSelfTimes(const Rep &rep)
{
    const HostLayers &h = rep.host;
    const double children = h.setup + h.tx + h.maintenance + h.finalize +
                            h.verify + h.recovery + h.schedules;
    struct Row
    {
        const char *layer;
        const char *covers;
        double s;
    };
    const Row rows[] = {
        {"workloads.setup", "System build, factory, Workload::setup",
         h.setup},
        {"sim.tx", "Workload::runTransaction (mem, controller, nvm)",
         h.tx},
        {"sim.maintenance", "System::maintenance (periodic GC)",
         h.maintenance},
        {"sim.finalize", "System::finalize (writeback, drain GC)",
         h.finalize},
        {"workloads.verify", "Workload::verify", h.verify},
        {"hoop.recovery", "crash, modelRecovery x3, recover, re-verify",
         h.recovery},
        {"check.schedules", "explore() schedules", h.schedules},
        {"(cell self)", "benchmark loop, metrics(), teardown",
         h.cell - children},
    };
    std::printf("host self time by layer (traced repetition, summed over "
                "cells, %.3f s):\n",
                h.cell);
    for (const Row &r : rows)
        std::printf("  %-18s %9.3f s %6.1f%%  %s\n", r.layer, r.s,
                    100.0 * ratio(r.s, h.cell), r.covers);
    std::printf("  nested, from HostProfiler: gc %.3f s; HostProfiler's "
                "top-level components leave %.3f s (%.1f%%) of cell time "
                "unattributed\n",
                rep.gcProfS, h.cell - rep.profiledS,
                100.0 * ratio(h.cell - rep.profiledS, h.cell));
}

/** Chrome trace, the same event format hoop_trace writes. */
bool
writeChromeTrace(const std::string &path, const std::vector<Rep> &reps)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\":[";
    bool first = true;
    double t0 = -1.0;
    for (const Rep &rep : reps) {
        auto emit = [&](const std::vector<Span> &spans) {
            for (const Span &s : spans) {
                if (t0 < 0.0)
                    t0 = s.startS;
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              ",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                              "\"dur\":%.3f}",
                              s.tid, (s.startS - t0) * 1e6, s.durS * 1e6);
                f << (first ? "\n" : ",\n") << "{\"ph\":\"X\",\"name\":"
                  << jsonQuote(s.name) << ",\"cat\":\"" << s.cat << "\""
                  << buf;
                first = false;
            }
        };
        for (const CellResult &c : rep.cells)
            emit(c.spans);
        for (const ExploreCell &e : rep.sweeps)
            emit(e.spans);
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Flags f;
    std::string err;
    if (!parseFlags(argc, argv, &f, &err))
        return usage(err.c_str());
    // All load comes from this process, at most one worker per core.
    const unsigned jobs =
        // lint: nondet-api-ok (host worker count; cells are independent, so simulated results do not depend on it)
        std::clamp(std::thread::hardware_concurrency(), 1u, kMaxJobs);
    Plan plan;
    if (!makePlan(f.workload, f.seed, f.tiny, &plan))
        return usage(("unknown workload " + f.workload).c_str());

    std::printf("perfbench %s seed %llu, %u worker thread(s), %s\n",
                f.workload.c_str(), static_cast<unsigned long long>(f.seed),
                jobs, f.trace ? "traced" : "untraced");
    std::printf("closed loop: %u simulated cores per cell, each starts its "
                "next transaction when the last commits; statistics start "
                "at beginMeasurement() with the modelled caches empty\n",
                plan.cells.empty() ? 0u : plan.cells[0].cfg.numCores);

    Tally tally;
    unsigned fid_cells = 0;
    const unsigned fid_bad = checkFidelity(f.seed, &fid_cells);
    tally.attempted += fid_cells;
    tally.failed += fid_bad;
    std::printf("loop fidelity: %u/%u schemes reproduce runWorkload's "
                "RunMetrics bit for bit\n",
                fid_cells - fid_bad, fid_cells);

    std::printf("reference kernel: %.1f ms here, %.1f ms on the reference "
                "host\n",
                1e3 * refKernelS(), 1e3 * kRefKernelS);

    if (f.trace)
        HostProfiler::enable();

    // Repeat the fixed work until the time is up. The first repetition
    // is a warm-up (allocator and page-cache state settle; its digest
    // is still checked), then at least two are measured. The traced
    // mode alternates untraced and traced repetitions.
    std::vector<Rep> reps;
    const double start = hostNow();
    std::vector<double> rep_walls;
    for (;;) {
        const bool traced =
            f.trace && !reps.empty() && reps.size() % 2 == 0;
        const double t = hostNow();
        reps.push_back(runRep(plan, jobs, traced));
        rep_walls.push_back(hostNow() - t);
        if (reps.size() < 3)
            continue;
        if (hostNow() - start + quantile(rep_walls, 0.5) > f.seconds)
            break;
    }
    const Rep warmup = std::move(reps.front());
    reps.erase(reps.begin());

    // Determinism: every repetition, the warm-up included, must give
    // the same simulated digest.
    const std::string digest = warmup.digest;
    bool same = true;
    for (const Rep &r : reps) {
        tally.check(r.digest == digest);
        same = same && r.digest == digest;
        tallyRep(plan, r, &tally);
    }
    tallyRep(plan, warmup, &tally);
    std::printf("repetition wall s: warm-up %.3f, measured", warmup.wallS);
    for (const Rep &r : reps)
        std::printf(" %.3f%s", r.wallS, r.traced ? "t" : "");
    std::printf("\nsim_digest %s (%zu repetitions, %s)\n", digest.c_str(),
                reps.size() + 1, same ? "identical" : "DIFFERENT");

    const Rep &first = reps.front();
    printCells(plan, first);
    const SimSummary sim = simSummary(plan, first);
    printPaperReference(f.workload, first, sim);

    // Host cost: CPU time summed over the cells and sweeps, in
    // reference-host seconds, median over the repetitions.
    std::vector<double> wall, cpu, setup, rss, traced_cpu;
    for (const Rep &r : reps) {
        if (r.traced) {
            traced_cpu.push_back(r.host.cellRef);
            continue;
        }
        wall.push_back(r.wallS);
        cpu.push_back(r.host.cellRef);
        setup.push_back(r.host.setupRef);
        rss.push_back(r.peakRssMb);
    }
    const double cpu_s = quantile(cpu, 0.5);
    std::printf("untraced repetitions: wall median %.3f s; reference-host "
                "CPU median %.3f s (min %.3f, max %.3f), setup %.4f s\n",
                quantile(wall, 0.5), cpu_s,
                *std::min_element(cpu.begin(), cpu.end()),
                *std::max_element(cpu.begin(), cpu.end()),
                quantile(setup, 0.5));

    Metrics out;
    if (!f.trace) {
        out.set("setup_s", quantile(setup, 0.5), "s");
        out.set("host_cpu_s", cpu_s, "s");
        out.set("peak_rss_mb", quantile(rss, 0.5), "MiB");
        out.set("hoop_sim_mtx_per_s", sim.mtxPerS, "Mtx/s");
        out.set("hoop_crit_p50_ns", sim.critP50, "ns");
        out.set("hoop_crit_p99_ns", sim.critP99, "ns");
        out.set("hoop_write_bytes_per_tx", sim.writeBytesPerTx, "B");
        out.set("hoop_vs_redo_tput", sim.vsRedo, "ratio");
        out.set("hoop_recovery_sim_ms", sim.recoveryMs, "ms");
        out.set("hoop_read_miss_p99_ns", sim.readMissP99, "ns");
    } else {
        // Host layer figures from the traced repetition with the median
        // host cost.
        std::vector<const Rep *> traced;
        for (const Rep &r : reps)
            if (r.traced)
                traced.push_back(&r);
        std::sort(traced.begin(), traced.end(),
                  [](const Rep *a, const Rep *b) {
                      return a->host.cellRef < b->host.cellRef;
                  });
        const Rep &mid = *traced[traced.size() / 2];
        const double overhead = ratio(quantile(traced_cpu, 0.5), cpu_s) - 1.0;
        out = layerMetrics(plan, mid, overhead);
        printSelfTimes(mid);
        if (!f.traceOut.empty()) {
            if (writeChromeTrace(f.traceOut, {mid}))
                std::printf("chrome trace: %s\n", f.traceOut.c_str());
            else
                tally.check(false);
        }
    }

    std::printf("hoop critical-path samples per cell: >= %llu\n",
                static_cast<unsigned long long>(sim.critSamplesMin));
    std::printf("fail_ratio %.6g (%llu failed of %llu attempted)\n",
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    for (const auto &[name, vu] : out.v)
        std::printf("  %-40s %.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                out.json().c_str());
    return 0;
}
