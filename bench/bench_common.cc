/**
 * @file
 * The bench driver: flags, parallel cell runner and machine-readable
 * bench reports.
 *
 * Implementation notes on determinism: run() only decides *when* each
 * cell executes, never what it computes. Every cell builds its own
 * System from a by-value SystemConfig (per-cell seed included) and
 * touches only its own slot, so any job count produces the same
 * per-cell RunMetrics and the same printed tables. All harness output
 * goes to stderr / the JSON file; stdout stays byte-identical to a
 * serial run.
 */

#include "bench_common.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/host_profiler.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace hoopnvm
{
namespace bench
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               // lint: nondet-api-ok (host wall-clock for bench wall-time reporting; never feeds simulated state)
               std::chrono::steady_clock::now() - t0)
        .count();
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested >= 1)
        return requested;
    // lint: nondet-api-ok (host parallelism default; affects scheduling only, not simulated results)
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

/** The worker count from `-jN` / `-j N` (0 when absent); enables the
 *  profiler on `--profile`; exits 2 on any other argument. */
unsigned
parseFlags(int argc, char **argv)
{
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            HostProfiler::enable();
            continue;
        }
        std::string count;
        if (arg == "-j" && i + 1 < argc)
            count = argv[++i];
        else if (arg.rfind("-j", 0) == 0)
            count = arg.substr(2);
        std::uint64_t v = 0;
        if (!parseUint(count, &v) || v < 1 ||
            v > std::numeric_limits<unsigned>::max()) {
            std::fprintf(stderr,
                         "%s: bad argument '%s'\n"
                         "usage: %s [-jN | -j N] [--profile]\n",
                         argv[0], argv[i], argv[0]);
            std::exit(2);
        }
        jobs = static_cast<unsigned>(v);
    }
    return jobs;
}

void
printBanner(const std::string &title, const SystemConfig &cfg)
{
    std::printf("hoopnvm bench: %s\n", title.c_str());
    std::printf("  config: %u cores @ %.1f GHz, L1 %lluK/L2 %lluK/LLC "
                "%lluM, NVM r/w %.0f/%.0f ns, OOP %lluM (%llu x %lluM "
                "blocks), mapping %lluK, GC period %.0f ms\n\n",
                cfg.numCores, kCpuGhz,
                static_cast<unsigned long long>(cfg.cache.l1Size >> 10),
                static_cast<unsigned long long>(cfg.cache.l2Size >> 10),
                static_cast<unsigned long long>(cfg.cache.llcSize >> 20),
                ticksToNs(cfg.nvm.readLatency),
                ticksToNs(cfg.nvm.writeLatency),
                static_cast<unsigned long long>(cfg.oopBytes >> 20),
                static_cast<unsigned long long>(cfg.oopBytes /
                                                cfg.oopBlockBytes),
                static_cast<unsigned long long>(cfg.oopBlockBytes >> 20),
                static_cast<unsigned long long>(
                    cfg.mappingTableBytes >> 10),
                ticksToMs(cfg.gcPeriod));
}

// ---- BENCH JSON: each object is written from one member list ----

/** A JSON object member: its key and its value's JSON text. */
using Member = std::pair<std::string, std::string>;
using Members = std::vector<Member>;

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
join(const Members &members, const char *sep)
{
    std::string out;
    for (const auto &[key, value] : members) {
        if (!out.empty())
            out += sep;
        out += jsonQuote(key) + ": " + value;
    }
    return out;
}

/** An object on one line. */
std::string
object(const Members &members)
{
    return "{" + join(members, ", ") + "}";
}

/** An object whose rows of members continue on new lines. */
std::string
object(const std::vector<Members> &rows)
{
    std::string out = "{";
    for (std::size_t r = 0; r < rows.size(); ++r)
        out += (r > 0 ? ",\n     " : "") + join(rows[r], ", ");
    return out + "}";
}

std::string
array(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i > 0 ? ", " : "") + items[i];
    return out + "]";
}

std::string
summaryJson(const LatencySummary &s)
{
    // Schema v5: the saturation markers (0/1) say the matching
    // quantile is the exact max under Histogram's small-population
    // rule, not a resolved quantile.
    return object(Members{
        {"count", num(s.count)},
        {"p50_ns", num(s.p50Ns)},
        {"p95_ns", num(s.p95Ns)},
        {"p99_ns", num(s.p99Ns)},
        {"p999_ns", num(s.p999Ns)},
        {"max_ns", num(s.maxNs)},
        {"mean_ns", num(s.meanNs)},
        {"p50_saturated", num(std::uint64_t{s.p50Saturated})},
        {"p95_saturated", num(std::uint64_t{s.p95Saturated})},
        {"p99_saturated", num(std::uint64_t{s.p99Saturated})},
        {"p999_saturated", num(std::uint64_t{s.p999Saturated})},
    });
}

std::string
metricsJson(const RunMetrics &m)
{
    // Schema v5: per-role interference slices. Always emitted; empty
    // for every workload outside the interference suite so the schema
    // stays uniform across benches.
    std::vector<std::string> roles;
    for (const RoleMetrics &r : m.roles) {
        roles.push_back(object(Members{
            {"role", jsonQuote(r.name)},
            {"transactions", num(r.transactions)},
            {"tx_per_second", num(r.txPerSecond)},
            {"latency", summaryJson(r.latency)},
        }));
    }
    std::vector<std::string> epochs;
    for (const EpochSample &e : m.epochs) {
        epochs.push_back(object(Members{
            {"at_ticks", num(e.at)},
            {"mapping_entries", num(e.mappingEntries)},
            {"struct_bytes", num(e.structBytes)},
            {"backpressure_stalls", num(e.backpressureStalls)},
            {"inflight_writes", num(e.inflightWrites)},
            {"retired_units", num(e.retiredUnits)},
            {"corrected_words", num(e.correctedWords)},
            {"degraded_fraction", num(e.degradedFraction)},
            {"tx_rejected", num(e.txRejected)},
            {"channel_busy_ticks", num(e.channelBusyTicks)},
            {"channel_wait_ticks", num(e.channelWaitTicks)},
        }));
    }
    return object(std::vector<Members>{
        {{"transactions", num(m.transactions)},
         {"sim_ticks", num(m.simTicks)},
         {"tx_per_second", num(m.txPerSecond)},
         {"avg_critical_path_ns", num(m.avgCriticalPathNs)},
         {"nvm_bytes_written", num(m.nvmBytesWritten)},
         {"nvm_bytes_read", num(m.nvmBytesRead)},
         {"bytes_written_per_tx", num(m.bytesWrittenPerTx)},
         {"energy_pj", num(m.energyPj)},
         {"llc_miss_ratio", num(m.llcMissRatio)}},
        {{"crit_path", summaryJson(m.critPath)}},
        {{"llc_miss_lat", summaryJson(m.llcMiss)}},
        {{"gc_pause", summaryJson(m.gcPause)}},
        {{"scrub_pause", summaryJson(m.scrubPause)}},
        {{"ecc_corrected_words", num(m.eccCorrectedWords)},
         {"uncorrectable_reads", num(m.uncorrectableReads)},
         {"read_retries", num(m.readRetries)},
         {"retired_units", num(m.retiredUnits)},
         {"tx_rejected", num(m.txRejected)},
         {"degraded_fraction", num(m.degradedFraction)}},
        {{"channel_busy_ticks", num(m.channelBusyTicks)},
         {"channel_wait_ticks", num(m.channelWaitTicks)},
         {"drain_fences", num(m.drainFences)},
         {"channel_utilization", num(m.channelUtilization)}},
        {{"roles", array(roles)}},
        {{"epochs", array(epochs)}},
    });
}

/** One cell's record; @p metrics is null for a cell timed outside
 *  the pool. */
std::string
cellJson(const std::string &label, double seconds,
         const RunMetrics *metrics, const CellValues &values)
{
    std::vector<Members> rows = {
        {{"label", jsonQuote(label)}, {"seconds", num(seconds)}}};
    if (metrics)
        rows.push_back({{"metrics", metricsJson(*metrics)}});
    for (const auto &[key, v] : values)
        rows.back().emplace_back(key, num(v));
    return object(rows);
}

} // namespace

std::uint64_t
benchTxPerCore(std::uint64_t dflt)
{
    // lint: nondet-api-ok (HOOP_BENCH_TX scales the run length explicitly; the value is recorded in the report)
    const char *env = std::getenv("HOOP_BENCH_TX");
    if (!env)
        return dflt;
    std::uint64_t v = 0;
    if (!parseUint(env, &v) || v < 1) {
        std::fprintf(stderr,
                     "bad HOOP_BENCH_TX '%s': want a positive integer\n",
                     env);
        std::exit(2);
    }
    return v;
}

RunMetrics
runCell(Scheme scheme, const std::string &workload,
        const WorkloadParams &params, const SystemConfig &cfg,
        std::uint64_t tx_per_core, const Probe &probe)
{
    System sys(cfg, scheme);
    const RunOutcome out =
        runWorkload(sys, makeWorkload(workload, params), tx_per_core);
    if (!out.verified) {
        HOOP_FATAL("verification failed for %s/%s", schemeName(scheme),
                   workload.c_str());
    }
    if (probe)
        probe(sys);
    return out.metrics;
}

CellRunner::CellRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

std::size_t
CellRunner::add(std::string label, std::function<void(RunMetrics &)> task)
{
    slots.push_back(Slot{std::move(label), std::move(task), 0.0, {}});
    return slots.size() - 1;
}

std::size_t
CellRunner::add(std::string label, Scheme scheme,
                const std::string &workload, const WorkloadParams &params,
                const SystemConfig &cfg, std::uint64_t tx_per_core,
                Probe probe)
{
    return add(std::move(label),
               [=, probe = std::move(probe)](RunMetrics &m) {
                   m = runCell(scheme, workload, params, cfg, tx_per_core,
                               probe);
               });
}

void
CellRunner::run()
{
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, slots.size()));

    auto worker = [this](std::atomic<std::size_t> &next) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= slots.size())
                return;
            // lint: nondet-api-ok (host wall-clock for per-cell wall-time reporting; never feeds simulated state)
            const auto c0 = std::chrono::steady_clock::now();
            slots[i].task(slots[i].metrics);
            slots[i].seconds = secondsSince(c0);
        }
    };

    std::atomic<std::size_t> next{0};
    if (workers <= 1) {
        worker(next); // -j1: inline on the calling thread, no pool
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back([&] { worker(next); });
        for (auto &t : pool)
            t.join();
    }
}

Bench::Bench(int argc, char **argv, std::string name,
             const std::string &title, const SystemConfig &cfg,
             std::uint64_t tx_per_core)
    : CellRunner(parseFlags(argc, argv)), name_(std::move(name)),
      cfg_(cfg), txPerCore_(tx_per_core),
      // lint: nondet-api-ok (host wall-clock for bench wall-time reporting; never feeds simulated state)
      start_(std::chrono::steady_clock::now())
{
    if (!title.empty())
        printBanner(title, cfg);
}

void
Bench::value(std::size_t i, std::string key, double v)
{
    if (values_.size() <= i)
        values_.resize(i + 1);
    values_[i].emplace_back(std::move(key), v);
}

void
Bench::addTimed(std::string label, double seconds, CellValues values)
{
    timed_.push_back({std::move(label), seconds, std::move(values)});
}

void
Bench::write() const
{
    std::string dir = ".";
    // lint: nondet-api-ok (HOOP_BENCH_JSON_DIR selects the report output directory only)
    if (const char *env = std::getenv("HOOP_BENCH_JSON_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";

    // HOOP_BENCH_DETERMINISTIC=1 zeroes every host-wall-clock field
    // (jobs, wall seconds, per-cell seconds, derived rates) so the
    // whole JSON is byte-comparable across runs and job counts — the
    // simulated content already is; the host timings are the only
    // nondeterministic bytes. CI's bench-smoke diffs -j1 against -j4
    // this way.
    // lint: nondet-api-ok (HOOP_BENCH_DETERMINISTIC selects report normalization only; never feeds simulated state)
    const char *det_env = std::getenv("HOOP_BENCH_DETERMINISTIC");
    const bool deterministic =
        det_env != nullptr && det_env[0] != '\0' && det_env[0] != '0';
    auto hostTime = [deterministic](double seconds) {
        return deterministic ? 0.0 : seconds;
    };

    std::vector<std::string> records;
    std::uint64_t sim_ticks = 0;
    static const CellValues kNoValues;
    for (std::size_t i = 0; i < cells(); ++i) {
        sim_ticks += metrics(i).simTicks;
        records.push_back(cellJson(label(i), hostTime(cellSeconds(i)),
                                   &metrics(i),
                                   i < values_.size() ? values_[i]
                                                      : kNoValues));
    }
    for (const TimedCell &c : timed_) {
        records.push_back(
            cellJson(c.label, hostTime(c.seconds), nullptr, c.values));
    }

    // The whole bench, not only the pool: work a bench does outside
    // run(), such as fig11's fill, counts too.
    const double wall_seconds = secondsSince(start_);
    const double wall = wall_seconds > 0.0 ? wall_seconds : 1e-9;
    const double cells_per_sec = hostTime(records.size() / wall);
    const double ticks_per_sec = hostTime(sim_ticks / wall);

    Members top = {
        {"schema_version", num(std::uint64_t{6})},
        {"bench", jsonQuote(name_)},
        {"config",
         object(Members{
             {"num_cores", num(std::uint64_t{cfg_.numCores})},
             {"cpu_ghz", num(kCpuGhz)},
             {"l1_bytes", num(cfg_.cache.l1Size)},
             {"l2_bytes", num(cfg_.cache.l2Size)},
             {"llc_bytes", num(cfg_.cache.llcSize)},
             {"oop_bytes", num(cfg_.oopBytes)},
             {"oop_block_bytes", num(cfg_.oopBlockBytes)},
             {"mapping_table_bytes", num(cfg_.mappingTableBytes)},
             {"nvm_read_ns", num(ticksToNs(cfg_.nvm.readLatency))},
             {"nvm_write_ns", num(ticksToNs(cfg_.nvm.writeLatency))},
             {"tx_per_core", num(txPerCore_)},
         })},
        {"host",
         object(Members{
             {"jobs", num(deterministic ? 0 : std::uint64_t{jobs()})},
             {"wall_seconds", num(hostTime(wall_seconds))},
             {"cells", num(std::uint64_t{records.size()})},
             {"cells_per_sec", num(cells_per_sec)},
             {"sim_ticks", num(sim_ticks)},
             {"sim_ticks_per_sec", num(ticks_per_sec)},
         })},
    };
    // Host-side per-component wall-time breakdown (--profile only, so
    // the JSON layout is unchanged for unprofiled runs).
    if (HostProfiler::enabled()) {
        Members profile;
        for (int c = 0; c < HostProfiler::kNumComponents; ++c) {
            profile.emplace_back(
                std::string(HostProfiler::name(c)) + "_seconds",
                num(static_cast<double>(HostProfiler::totalNs(c)) *
                    1e-9));
        }
        top.emplace_back("host_profile", object(profile));
    }
    std::string cells_json = "[";
    for (std::size_t i = 0; i < records.size(); ++i)
        cells_json += (i > 0 ? ",\n    " : "\n    ") + records[i];
    top.emplace_back("cells", cells_json + "\n  ]");

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }
    std::fputs(("{\n  " + join(top, ",\n  ") + "\n}\n").c_str(), f);
    std::fclose(f);

    std::fprintf(stderr,
                 "[bench %s] %zu cells, jobs=%u, wall=%.2fs "
                 "(%.2f cells/s, %.3g sim ticks/s) -> %s\n",
                 name_.c_str(), records.size(), jobs(), wall_seconds,
                 cells_per_sec, ticks_per_sec, path.c_str());
    if (HostProfiler::enabled()) {
        std::fprintf(stderr, "[bench %s] host profile:", name_.c_str());
        for (int c = 0; c < HostProfiler::kNumComponents; ++c) {
            std::fprintf(
                stderr, " %s=%.2fs", HostProfiler::name(c),
                static_cast<double>(HostProfiler::totalNs(c)) * 1e-9);
        }
        std::fputc('\n', stderr);
    }
}

FigureMatrix::FigureMatrix(Bench &bench, const SystemConfig &cfg,
                           Probe read_profile)
    : bench_(bench)
{
    for (const char *w :
         {"vector", "hashmap", "queue", "rbtree", "btree"}) {
        cols_.push_back({std::string(w) + "-64B", w, 64});
        cols_.push_back({std::string(w) + "-1KB", w, 1024});
    }
    cols_.push_back({"ycsb-512B", "ycsb", 512});
    cols_.push_back({"ycsb-1KB", "ycsb", 1024});
    cols_.push_back({"tpcc", "tpcc", 64});

    for (Scheme s : kAllSchemes) {
        for (const WorkloadCol &c : cols_) {
            const bool profiled =
                s == Scheme::Hoop && c.label == "ycsb-1KB";
            bench.add(std::string(schemeName(s)) + "/" + c.label, s,
                      c.name, paperParams(c.valueBytes), cfg,
                      bench.txPerCore(),
                      profiled ? read_profile : Probe{});
        }
    }
}

const RunMetrics &
FigureMatrix::at(Scheme s, std::size_t w) const
{
    const std::size_t row = static_cast<std::size_t>(
        std::find(std::begin(kAllSchemes), std::end(kAllSchemes), s) -
        std::begin(kAllSchemes));
    return bench_.metrics(row * cols_.size() + w);
}

const RunMetrics &
FigureMatrix::at(Scheme s, const std::string &col) const
{
    const auto it =
        std::find_if(cols_.begin(), cols_.end(),
                     [&](const WorkloadCol &c) { return c.label == col; });
    return at(s, static_cast<std::size_t>(it - cols_.begin()));
}

std::map<Scheme, double>
FigureMatrix::printNormalized(const std::string &title, Scheme base,
                              double (*value)(const RunMetrics &)) const
{
    TablePrinter table(title);
    std::vector<std::string> header = {"scheme"};
    for (const WorkloadCol &c : cols_)
        header.push_back(c.label);
    header.push_back("geomean");
    table.setHeader(header);

    std::map<Scheme, double> geo;
    for (Scheme s : kAllSchemes) {
        std::vector<std::string> row = {schemeName(s)};
        double g = 0.0;
        for (std::size_t w = 0; w < cols_.size(); ++w) {
            const double norm = value(at(s, w)) / value(at(base, w));
            row.push_back(TablePrinter::num(norm, 2));
            g += std::log(norm);
        }
        geo[s] = std::exp(g / static_cast<double>(cols_.size()));
        row.push_back(TablePrinter::num(geo[s], 2));
        table.addRow(row);
    }
    table.print();
    return geo;
}

} // namespace bench
} // namespace hoopnvm
