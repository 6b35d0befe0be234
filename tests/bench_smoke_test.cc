/**
 * @file
 * End-to-end smoke test for a bench binary: an unknown flag must end
 * in exit 2 with no report written; then a run with a tiny transaction
 * count (HOOP_BENCH_TX) on a 2-thread pool (-j2) must emit a
 * machine-readable BENCH_<name>.json that matches the schema —
 * well-formed JSON, schema_version, the config/host summary blocks,
 * and per-cell records with labels, wall seconds, and metrics.
 *
 * Usage: bench_smoke_test <path-to-bench-binary> <expected-json-name>
 * (wired up by tests/CMakeLists.txt with $<TARGET_FILE:bench_workloads>).
 * Plain main, no gtest: the bench path comes in via argv.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "common/json.hh"

namespace
{

using namespace hoopnvm;

int failures = 0;

#define CHECK(cond, ...)                                                \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__);   \
            std::fprintf(stderr, __VA_ARGS__);                          \
            std::fprintf(stderr, "\n");                                 \
            ++failures;                                                 \
        }                                                               \
    } while (0)

using Json = JsonValue;
using Kind = JsonValue::Kind;

void
requireNum(const Json &obj, const char *key, const char *where)
{
    const Json *v = obj.find(key);
    CHECK(v != nullptr, "%s missing key \"%s\"", where, key);
    if (v)
        CHECK(v->kind == Kind::Number, "%s key \"%s\" is not a number",
              where, key);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: %s <bench-binary> <expected-json-name>\n",
                     argv[0]);
        return 2;
    }
    const std::string bench = argv[1];
    const std::string jsonName = argv[2];

    // Tiny run: a handful of transactions on a 2-thread pool, JSON
    // into the CWD (the ctest working directory).
    ::setenv("HOOP_BENCH_TX", "3", 1);
    ::setenv("HOOP_BENCH_JSON_DIR", ".", 1);
    std::remove(jsonName.c_str());

    const std::string exe = "'" + bench + "'";
    const int bad =
        std::system((exe + " --profle > bench_smoke_usage.txt 2>&1").c_str());
    CHECK(WIFEXITED(bad) && WEXITSTATUS(bad) == 2,
          "an unknown flag should exit 2, got status %d", bad);
    std::stringstream usage;
    usage << std::ifstream("bench_smoke_usage.txt").rdbuf();
    CHECK(usage.str().find("usage: ") != std::string::npos,
          "an unknown flag printed no usage line");
    CHECK(!std::ifstream(jsonName).good(),
          "the unknown flag still wrote %s", jsonName.c_str());

    const int rc =
        std::system((exe + " -j2 > bench_smoke_stdout.txt").c_str());
    CHECK(rc == 0, "bench exited with status %d", rc);

    std::ifstream in(jsonName);
    CHECK(in.good(), "bench did not write %s", jsonName.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    CHECK(!text.empty(), "%s is empty", jsonName.c_str());

    Json root;
    std::string err;
    CHECK(parseJson(text, &root, &err), "%s is not well-formed JSON: %s",
          jsonName.c_str(), err.c_str());
    if (failures)
        return 1;

    CHECK(root.kind == Kind::Object, "root is not an object");
    const Json *ver = root.find("schema_version");
    CHECK(ver && ver->kind == Kind::Number && ver->number() == 6.0,
          "schema_version != 6");
    const Json *name = root.find("bench");
    CHECK(name && name->kind == Kind::String && !name->text.empty(),
          "missing bench name");

    const Json *config = root.find("config");
    CHECK(config && config->kind == Kind::Object, "missing config object");
    if (config && config->kind == Kind::Object) {
        for (const char *k :
             {"num_cores", "cpu_ghz", "l1_bytes", "l2_bytes",
              "llc_bytes", "oop_bytes", "oop_block_bytes",
              "mapping_table_bytes", "nvm_read_ns", "nvm_write_ns",
              "tx_per_core"})
            requireNum(*config, k, "config");
    }

    const Json *host = root.find("host");
    CHECK(host && host->kind == Kind::Object, "missing host object");
    if (host && host->kind == Kind::Object) {
        for (const char *k : {"jobs", "wall_seconds", "cells",
                              "cells_per_sec", "sim_ticks",
                              "sim_ticks_per_sec"})
            requireNum(*host, k, "host");
        const Json *jobs = host->find("jobs");
        if (jobs)
            CHECK(jobs->number() == 2.0,
                  "host.jobs should honour -j2, got %g", jobs->number());
    }

    const Json *cells = root.find("cells");
    CHECK(cells && cells->kind == Kind::Array, "missing cells array");
    if (cells && cells->kind == Kind::Array) {
        CHECK(!cells->items.empty(), "cells array is empty");
        for (std::size_t i = 0; i < cells->items.size(); ++i) {
            const Json &cell = cells->items[i];
            CHECK(cell.kind == Kind::Object, "cell %zu not an object", i);
            const Json *label = cell.find("label");
            CHECK(label && label->kind == Kind::String &&
                      !label->text.empty(),
                  "cell %zu missing label", i);
            requireNum(cell, "seconds", "cell");
            const Json *metrics = cell.find("metrics");
            if (metrics) {
                CHECK(metrics->kind == Kind::Object,
                      "cell %zu metrics not an object", i);
                for (const char *k :
                     {"transactions", "sim_ticks", "tx_per_second",
                      "nvm_bytes_written", "nvm_bytes_read"})
                    requireNum(*metrics, k, "metrics");
                // Schema v2: latency quantile summaries + epoch ring.
                // Schema v3 adds the scrub pause summary and the
                // media-tolerance tallies below. Schema v4 adds the
                // p999 tail quantile. Schema v5 adds the
                // under-populated-quantile markers, the NVM
                // channel-occupancy gauges and the per-role block.
                // Schema v6 drops the four client_* epoch gauges.
                for (const char *k :
                     {"crit_path", "llc_miss_lat", "gc_pause",
                      "scrub_pause"}) {
                    const Json *sum = metrics->find(k);
                    CHECK(sum && sum->kind == Kind::Object,
                          "cell %zu metrics missing summary \"%s\"",
                          i, k);
                    if (sum && sum->kind == Kind::Object) {
                        for (const char *q :
                             {"count", "p50_ns", "p95_ns", "p99_ns",
                              "p999_ns", "max_ns", "mean_ns",
                              "p50_saturated", "p95_saturated",
                              "p99_saturated", "p999_saturated"})
                            requireNum(*sum, q, k);
                    }
                }
                for (const char *k :
                     {"ecc_corrected_words", "uncorrectable_reads",
                      "read_retries", "retired_units", "tx_rejected",
                      "degraded_fraction", "channel_busy_ticks",
                      "channel_wait_ticks", "drain_fences",
                      "channel_utilization"})
                    requireNum(*metrics, k, "metrics");
                const Json *roles = metrics->find("roles");
                CHECK(roles && roles->kind == Kind::Array,
                      "cell %zu metrics missing roles array", i);
                if (roles && roles->kind == Kind::Array) {
                    // Empty for every non-interference bench; when a
                    // role is present it carries the full record.
                    for (const Json &r : roles->items) {
                        CHECK(r.kind == Kind::Object,
                              "role entry not an object");
                        const Json *rn = r.find("role");
                        CHECK(rn && rn->kind == Kind::String &&
                                  !rn->text.empty(),
                              "role entry missing name");
                        requireNum(r, "transactions", "role");
                        requireNum(r, "tx_per_second", "role");
                        const Json *lat = r.find("latency");
                        CHECK(lat && lat->kind == Kind::Object,
                              "role entry missing latency summary");
                    }
                }
                const Json *epochs = metrics->find("epochs");
                CHECK(epochs && epochs->kind == Kind::Array,
                      "cell %zu metrics missing epochs array", i);
                if (epochs && epochs->kind == Kind::Array) {
                    for (const Json &e : epochs->items) {
                        CHECK(e.kind == Kind::Object,
                              "epoch entry not an object");
                        for (const char *k :
                             {"at_ticks", "mapping_entries",
                              "struct_bytes", "backpressure_stalls",
                              "inflight_writes", "retired_units",
                              "corrected_words", "degraded_fraction",
                              "tx_rejected", "channel_busy_ticks",
                              "channel_wait_ticks"})
                            requireNum(e, k, "epoch");
                        for (const auto &[k, v] : e.members)
                            CHECK(k.rfind("client_", 0) != 0,
                                  "epoch carries removed key \"%s\"",
                                  k.c_str());
                    }
                }
            }
        }
    }

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("bench smoke OK: %s -> %s (%zu cells)\n", bench.c_str(),
                jsonName.c_str(),
                cells ? cells->items.size() : 0);
    return 0;
}
