/**
 * @file
 * Parallel cell runner and machine-readable bench reports.
 *
 * Implementation notes on determinism: run() only decides *when* each
 * cell executes, never what it computes. Every cell builds its own
 * System from a by-value SystemConfig (per-cell seed included) and
 * touches only its own result slot, so any job count produces the same
 * per-cell RunMetrics and the same printed tables. All harness output
 * goes to stderr / the JSON file; stdout stays byte-identical to a
 * serial run.
 */

#include "bench_common.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/host_profiler.hh"

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
envJobs()
{
    // lint: nondet-api-ok (HOOP_BENCH_JOBS picks host worker-thread count; cells stay deterministic)
    if (const char *env = std::getenv("HOOP_BENCH_JOBS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 0;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested >= 1)
        return requested;
    if (const unsigned env = envJobs())
        return env;
    // lint: nondet-api-ok (host parallelism default; affects scheduling only, not simulated results)
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

void
fputJsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    std::fputs(jsonEscape(s).c_str(), f);
    std::fputc('"', f);
}

void
fputKey(std::FILE *f, const char *key)
{
    // lint: raw-json-ok (keys are compile-time identifiers; runtime values go through fputJsonString)
    std::fprintf(f, "\"%s\": ", key);
}

void
fputNum(std::FILE *f, const char *key, double v)
{
    fputKey(f, key);
    std::fprintf(f, "%.17g", v);
}

void
fputNum(std::FILE *f, const char *key, std::uint64_t v)
{
    fputKey(f, key);
    std::fprintf(f, "%llu", static_cast<unsigned long long>(v));
}

void
fputSummary(std::FILE *f, const char *key, const LatencySummary &s)
{
    fputKey(f, key);
    std::fputc('{', f);
    fputNum(f, "count", s.count);
    std::fputs(", ", f);
    fputNum(f, "p50_ns", s.p50Ns);
    std::fputs(", ", f);
    fputNum(f, "p95_ns", s.p95Ns);
    std::fputs(", ", f);
    fputNum(f, "p99_ns", s.p99Ns);
    std::fputs(", ", f);
    fputNum(f, "p999_ns", s.p999Ns);
    std::fputs(", ", f);
    fputNum(f, "max_ns", s.maxNs);
    std::fputs(", ", f);
    fputNum(f, "mean_ns", s.meanNs);
    // Schema v5: saturation markers (0/1) — the matching quantile is
    // the exact max under Histogram's small-population rule, not a
    // resolved quantile.
    std::fputs(", ", f);
    fputNum(f, "p50_saturated", std::uint64_t{s.p50Saturated});
    std::fputs(", ", f);
    fputNum(f, "p95_saturated", std::uint64_t{s.p95Saturated});
    std::fputs(", ", f);
    fputNum(f, "p99_saturated", std::uint64_t{s.p99Saturated});
    std::fputs(", ", f);
    fputNum(f, "p999_saturated", std::uint64_t{s.p999Saturated});
    std::fputc('}', f);
}

void
fputRoles(std::FILE *f, const std::vector<RoleMetrics> &roles)
{
    // Schema v5: per-role interference slices. Always emitted; empty
    // for every workload outside the interference suite so the schema
    // stays uniform across benches.
    fputKey(f, "roles");
    std::fputc('[', f);
    bool first = true;
    for (const RoleMetrics &r : roles) {
        std::fputs(first ? "{" : ", {", f);
        first = false;
        fputKey(f, "role");
        fputJsonString(f, r.name);
        std::fputs(", ", f);
        fputNum(f, "transactions", r.transactions);
        std::fputs(", ", f);
        fputNum(f, "tx_per_second", r.txPerSecond);
        std::fputs(", ", f);
        fputSummary(f, "latency", r.latency);
        std::fputc('}', f);
    }
    std::fputc(']', f);
}

void
fputEpochs(std::FILE *f, const std::vector<EpochSample> &epochs)
{
    fputKey(f, "epochs");
    std::fputc('[', f);
    bool first = true;
    for (const EpochSample &e : epochs) {
        std::fputs(first ? "{" : ", {", f);
        first = false;
        fputNum(f, "at_ticks", e.at);
        std::fputs(", ", f);
        fputNum(f, "mapping_entries", e.mappingEntries);
        std::fputs(", ", f);
        fputNum(f, "struct_bytes", e.structBytes);
        std::fputs(", ", f);
        fputNum(f, "backpressure_stalls", e.backpressureStalls);
        std::fputs(", ", f);
        fputNum(f, "inflight_writes", e.inflightWrites);
        std::fputs(", ", f);
        fputNum(f, "retired_units", e.retiredUnits);
        std::fputs(", ", f);
        fputNum(f, "corrected_words", e.correctedWords);
        std::fputs(", ", f);
        fputNum(f, "degraded_fraction", e.degradedFraction);
        std::fputs(", ", f);
        fputNum(f, "tx_rejected", e.txRejected);
        std::fputs(", ", f);
        fputNum(f, "client_retry_attempts", e.clientRetryAttempts);
        std::fputs(", ", f);
        fputNum(f, "client_backoff_ticks", e.clientBackoffTicks);
        std::fputs(", ", f);
        fputNum(f, "client_deadline_misses", e.clientDeadlineMisses);
        std::fputs(", ", f);
        fputNum(f, "client_shed_admissions", e.clientShedAdmissions);
        std::fputs(", ", f);
        fputNum(f, "channel_busy_ticks", e.channelBusyTicks);
        std::fputs(", ", f);
        fputNum(f, "channel_wait_ticks", e.channelWaitTicks);
        std::fputc('}', f);
    }
    std::fputc(']', f);
}

} // namespace

std::uint64_t
benchTxPerCore()
{
    // lint: nondet-api-ok (HOOP_BENCH_TX scales the run length explicitly; the value is recorded in the report)
    if (const char *env = std::getenv("HOOP_BENCH_TX")) {
        const long long v = std::strtoll(env, nullptr, 10);
        if (v >= 1)
            return static_cast<std::uint64_t>(v);
    }
    return kTxPerCore;
}

unsigned
benchJobs(int argc, char **argv)
{
    // Scan every argument: flags may come in any order.
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--profile") == 0) {
            HostProfiler::enable();
            continue;
        }
        if (std::strncmp(argv[i], "-j", 2) != 0)
            continue;
        const char *num = argv[i] + 2;
        if (*num == '\0' && i + 1 < argc)
            num = argv[++i];
        const long v = std::strtol(num, nullptr, 10);
        if (v >= 1 && jobs == 0)
            jobs = static_cast<unsigned>(v);
    }
    return jobs;
}

CellRunner::CellRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

std::size_t
CellRunner::add(std::string label, std::function<void()> task)
{
    slots.push_back(Slot{std::move(label), std::move(task), 0.0,
                         nullptr});
    return slots.size() - 1;
}

void
CellRunner::noteMetrics(std::size_t idx, const RunMetrics *m)
{
    slots[idx].metrics = m;
}

double
CellRunner::run()
{
    // lint: nondet-api-ok (host wall-clock for bench wall-time reporting; never feeds simulated state)
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, slots.size()));

    auto worker = [this](std::atomic<std::size_t> &next) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= slots.size())
                return;
            // lint: nondet-api-ok (host wall-clock for per-cell wall-time reporting; never feeds simulated state)
            const auto c0 = std::chrono::steady_clock::now();
            slots[i].task();
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
    totalSeconds_ += secondsSince(t0);
    return totalSeconds_;
}

BenchReport::BenchReport(std::string name, const SystemConfig &cfg,
                         std::uint64_t tx_per_core)
    : name_(std::move(name)), cfg_(cfg), txPerCore_(tx_per_core)
{
}

void
BenchReport::addCells(const CellRunner &runner)
{
    for (std::size_t i = 0; i < runner.cells(); ++i)
        addCell(runner.label(i), runner.cellSeconds(i),
                runner.metrics(i));
    jobs_ = runner.jobs();
    wallSeconds_ += runner.totalSeconds();
}

void
BenchReport::addCell(std::string label, double seconds,
                     const RunMetrics *m)
{
    CellRecord rec;
    rec.label = std::move(label);
    rec.seconds = seconds;
    if (m) {
        rec.hasMetrics = true;
        rec.metrics = *m;
    }
    cells_.push_back(std::move(rec));
}

void
BenchReport::cellValue(const std::string &label, std::string key,
                       double value)
{
    for (CellRecord &rec : cells_) {
        if (rec.label == label) {
            rec.values.emplace_back(std::move(key), value);
            return;
        }
    }
    HOOP_FATAL("BenchReport: no cell labelled '%s'", label.c_str());
}

void
BenchReport::value(std::string key, double v)
{
    values_.emplace_back(std::move(key), v);
}

void
BenchReport::write() const
{
    std::string dir = ".";
    // lint: nondet-api-ok (HOOP_BENCH_JSON_DIR selects the report output directory only)
    if (const char *env = std::getenv("HOOP_BENCH_JSON_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }

    std::uint64_t sim_ticks = 0;
    for (const CellRecord &rec : cells_) {
        if (rec.hasMetrics)
            sim_ticks += rec.metrics.simTicks;
    }
    // HOOP_BENCH_DETERMINISTIC=1 zeroes every host-wall-clock field
    // (jobs, wall seconds, per-cell seconds, derived rates) so the
    // whole JSON is byte-comparable across runs and job counts — the
    // simulated content already is; the host timings are the only
    // nondeterministic bytes. CI's interference-smoke diffs -j1
    // against -jN this way.
    // lint: nondet-api-ok (HOOP_BENCH_DETERMINISTIC selects report normalization only; never feeds simulated state)
    const char *det_env = std::getenv("HOOP_BENCH_DETERMINISTIC");
    const bool deterministic =
        det_env != nullptr && det_env[0] != '\0' && det_env[0] != '0';
    const double wall = wallSeconds_ > 0.0 ? wallSeconds_ : 1e-9;
    const double cells_per_sec =
        deterministic ? 0.0 : cells_.size() / wall;
    const double ticks_per_sec = deterministic ? 0.0 : sim_ticks / wall;

    std::fputs("{\n  ", f);
    fputNum(f, "schema_version", std::uint64_t{5});
    std::fputs(",\n  ", f);
    fputKey(f, "bench");
    fputJsonString(f, name_);

    std::fputs(",\n  \"config\": {", f);
    fputNum(f, "num_cores", std::uint64_t{cfg_.numCores});
    std::fputs(", ", f);
    fputNum(f, "cpu_ghz", cfg_.cpuGhz);
    std::fputs(", ", f);
    fputNum(f, "l1_bytes", cfg_.cache.l1Size);
    std::fputs(", ", f);
    fputNum(f, "l2_bytes", cfg_.cache.l2Size);
    std::fputs(", ", f);
    fputNum(f, "llc_bytes", cfg_.cache.llcSize);
    std::fputs(", ", f);
    fputNum(f, "oop_bytes", cfg_.oopBytes);
    std::fputs(", ", f);
    fputNum(f, "oop_block_bytes", cfg_.oopBlockBytes);
    std::fputs(", ", f);
    fputNum(f, "mapping_table_bytes", cfg_.mappingTableBytes);
    std::fputs(", ", f);
    fputNum(f, "nvm_read_ns", ticksToNs(cfg_.nvm.readLatency));
    std::fputs(", ", f);
    fputNum(f, "nvm_write_ns", ticksToNs(cfg_.nvm.writeLatency));
    std::fputs(", ", f);
    fputNum(f, "tx_per_core", txPerCore_);
    std::fputs("}", f);

    std::fputs(",\n  \"host\": {", f);
    fputNum(f, "jobs", deterministic ? 0 : std::uint64_t{jobs_});
    std::fputs(", ", f);
    fputNum(f, "wall_seconds", deterministic ? 0.0 : wallSeconds_);
    std::fputs(", ", f);
    fputNum(f, "cells", std::uint64_t{cells_.size()});
    std::fputs(", ", f);
    fputNum(f, "cells_per_sec", cells_per_sec);
    std::fputs(", ", f);
    fputNum(f, "sim_ticks", sim_ticks);
    std::fputs(", ", f);
    fputNum(f, "sim_ticks_per_sec", ticks_per_sec);
    std::fputs("}", f);

    for (const auto &[key, v] : values_) {
        std::fputs(",\n  ", f);
        fputJsonString(f, key);
        std::fprintf(f, ": %.17g", v);
    }

    // Host-side per-component wall-time breakdown (--profile only, so
    // the JSON layout is unchanged for unprofiled runs).
    if (HostProfiler::enabled()) {
        std::fputs(",\n  \"host_profile\": {", f);
        for (int c = 0; c < HostProfiler::kNumComponents; ++c) {
            if (c > 0)
                std::fputs(", ", f);
            const std::string key =
                std::string(HostProfiler::name(c)) + "_seconds";
            fputNum(f, key.c_str(),
                    static_cast<double>(HostProfiler::totalNs(c)) *
                        1e-9);
        }
        std::fputs("}", f);
    }

    std::fputs(",\n  \"cells\": [", f);
    bool first_cell = true;
    for (const CellRecord &rec : cells_) {
        std::fputs(first_cell ? "\n    {" : ",\n    {", f);
        first_cell = false;
        fputKey(f, "label");
        fputJsonString(f, rec.label);
        std::fputs(", ", f);
        fputNum(f, "seconds", deterministic ? 0.0 : rec.seconds);
        if (rec.hasMetrics) {
            const RunMetrics &m = rec.metrics;
            std::fputs(",\n     \"metrics\": {", f);
            fputNum(f, "transactions", m.transactions);
            std::fputs(", ", f);
            fputNum(f, "sim_ticks", m.simTicks);
            std::fputs(", ", f);
            fputNum(f, "tx_per_second", m.txPerSecond);
            std::fputs(", ", f);
            fputNum(f, "avg_critical_path_ns", m.avgCriticalPathNs);
            std::fputs(", ", f);
            fputNum(f, "nvm_bytes_written", m.nvmBytesWritten);
            std::fputs(", ", f);
            fputNum(f, "nvm_bytes_read", m.nvmBytesRead);
            std::fputs(", ", f);
            fputNum(f, "bytes_written_per_tx", m.bytesWrittenPerTx);
            std::fputs(", ", f);
            fputNum(f, "energy_pj", m.energyPj);
            std::fputs(", ", f);
            fputNum(f, "llc_miss_ratio", m.llcMissRatio);
            std::fputs(",\n     ", f);
            fputSummary(f, "crit_path", m.critPath);
            std::fputs(",\n     ", f);
            fputSummary(f, "llc_miss_lat", m.llcMiss);
            std::fputs(",\n     ", f);
            fputSummary(f, "gc_pause", m.gcPause);
            std::fputs(",\n     ", f);
            fputSummary(f, "scrub_pause", m.scrubPause);
            std::fputs(",\n     ", f);
            fputNum(f, "ecc_corrected_words", m.eccCorrectedWords);
            std::fputs(", ", f);
            fputNum(f, "uncorrectable_reads", m.uncorrectableReads);
            std::fputs(", ", f);
            fputNum(f, "read_retries", m.readRetries);
            std::fputs(", ", f);
            fputNum(f, "retired_units", m.retiredUnits);
            std::fputs(", ", f);
            fputNum(f, "tx_rejected", m.txRejected);
            std::fputs(", ", f);
            fputNum(f, "degraded_fraction", m.degradedFraction);
            std::fputs(",\n     ", f);
            fputNum(f, "channel_busy_ticks", m.channelBusyTicks);
            std::fputs(", ", f);
            fputNum(f, "channel_wait_ticks", m.channelWaitTicks);
            std::fputs(", ", f);
            fputNum(f, "drain_fences", m.drainFences);
            std::fputs(", ", f);
            fputNum(f, "channel_utilization", m.channelUtilization);
            std::fputs(",\n     ", f);
            fputRoles(f, m.roles);
            std::fputs(",\n     ", f);
            fputEpochs(f, m.epochs);
            std::fputs("}", f);
        }
        for (const auto &[key, v] : rec.values) {
            std::fputs(", ", f);
            fputJsonString(f, key);
            std::fprintf(f, ": %.17g", v);
        }
        std::fputs("}", f);
    }
    std::fputs("\n  ]\n}\n", f);
    std::fclose(f);

    std::fprintf(stderr,
                 "[bench %s] %zu cells, jobs=%u, wall=%.2fs "
                 "(%.2f cells/s, %.3g sim ticks/s) -> %s\n",
                 name_.c_str(), cells_.size(), jobs_, wallSeconds_,
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

} // namespace bench
} // namespace hoopnvm
