/**
 * @file
 * hoop_fleet: sharded-fleet robustness harness CLI.
 *
 * Runs scheme x chaos-profile cells of the fleet harness (see
 * fleet/fleet.hh): N independent HOOP shards behind a hashing
 * front-end, an open-loop Poisson client with bounded retry /
 * backoff / deadline, and a deterministic chaos schedule crashing,
 * stalling and fault-ramping shards mid-traffic. Oracles assert that
 * no acked transaction is ever lost across online recoveries, that
 * every request resolves to a structured client outcome, and that
 * every shard is re-admitted by the end of the run.
 *
 * A violating cell is shrunk to a minimal spec and written as
 * replayable JSON; `--replay <file>` re-executes it deterministically.
 * `--inject-ack-bug` arms the seeded ack-before-durable bug on shard 0
 * (self-test: the run MUST violate). `--json` writes per-cell
 * counters and fleet/per-shard latency tails for CI artifact diffing.
 *
 * Exit codes: 0 = clean matrix, 1 = violations found, 2 = usage
 * error, 3 = watchdog budget exceeded.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "fleet/chaos.hh"
#include "fleet/fleet.hh"

namespace
{

using namespace hoopnvm;

void
printResult(const FleetResult &r)
{
    std::printf("  outcomes: acked %llu  rejected %llu  timed out "
                "%llu  shed %llu\n",
                static_cast<unsigned long long>(r.acked),
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.timedOut),
                static_cast<unsigned long long>(r.shed));
    std::printf("  client: retries %llu  backoff ticks %llu  deadline "
                "misses %llu  shed admissions %llu\n",
                static_cast<unsigned long long>(r.retryAttempts),
                static_cast<unsigned long long>(r.backoffTicks),
                static_cast<unsigned long long>(r.deadlineMisses),
                static_cast<unsigned long long>(r.shedAdmissions));
    std::printf("  chaos: crashes %llu  stalls %llu  fault ramps %llu "
                " recoveries %llu\n",
                static_cast<unsigned long long>(r.chaosCrashes),
                static_cast<unsigned long long>(r.stallWindows),
                static_cast<unsigned long long>(r.faultRamps),
                static_cast<unsigned long long>(r.recoveries));
    std::printf("  latency ns: p50 %.0f  p99 %.0f  p999 %.0f  max "
                "%.0f (%llu samples)\n",
                r.latency.p50Ns, r.latency.p99Ns, r.latency.p999Ns,
                r.latency.maxNs,
                static_cast<unsigned long long>(r.latency.count));
}

void
appendLatencyJson(std::ostringstream &os, const LatencySummary &l)
{
    os << "{\"count\": " << l.count << ", \"p50_ns\": " << l.p50Ns
       << ", \"p95_ns\": " << l.p95Ns << ", \"p99_ns\": " << l.p99Ns
       << ", \"p999_ns\": " << l.p999Ns << ", \"max_ns\": " << l.maxNs
       << ", \"mean_ns\": " << l.meanNs << "}";
}

std::string
cellJson(const FleetSpec &spec, const FleetResult &r)
{
    std::ostringstream os;
    os << "{\"scheme\": \"" << schemeToken(spec.scheme)
       << "\", \"chaos\": \"" << spec.chaosProfile
       << "\", \"workload\": \"" << spec.workload
       << "\", \"shards\": " << spec.shards << ", \"violated\": "
       << (r.violated ? "true" : "false")
       << ", \"requests\": " << r.requests
       << ", \"acked\": " << r.acked
       << ", \"rejected\": " << r.rejected
       << ", \"timed_out\": " << r.timedOut
       << ", \"shed\": " << r.shed
       << ", \"retry_attempts\": " << r.retryAttempts
       << ", \"backoff_ticks\": " << r.backoffTicks
       << ", \"deadline_misses\": " << r.deadlineMisses
       << ", \"shed_admissions\": " << r.shedAdmissions
       << ", \"recoveries\": " << r.recoveries
       << ", \"chaos_crashes\": " << r.chaosCrashes
       << ", \"stall_windows\": " << r.stallWindows
       << ", \"fault_ramps\": " << r.faultRamps
       << ", \"latency\": ";
    appendLatencyJson(os, r.latency);
    os << ", \"per_shard\": [";
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
        const FleetShardReport &sh = r.shards[s];
        os << (s ? ", " : "") << "{\"shard\": " << sh.shard
           << ", \"acked\": " << sh.counters.acked
           << ", \"rejected_admission\": "
           << sh.counters.rejectedAdmission
           << ", \"rejected_mid_tx\": " << sh.counters.rejectedMidTx
           << ", \"recoveries\": " << sh.counters.recoveries
           << ", \"chaos_crashes\": " << sh.counters.chaosCrashes
           << ", \"stall_windows\": " << sh.counters.stallWindows
           << ", \"fault_ramps\": " << sh.counters.faultRamps
           << ", \"retry_attempts\": " << sh.retryAttempts
           << ", \"backoff_ticks\": " << sh.backoffTicks
           << ", \"deadline_misses\": " << sh.deadlineMisses
           << ", \"shed_admissions\": " << sh.shedAdmissions
           << ", \"admitting_at_end\": "
           << (sh.admittingAtEnd ? "true" : "false")
           << ", \"retired_units\": " << sh.retiredUnits
           << ", \"degraded_fraction\": " << sh.degradedFraction
           << ", \"latency\": ";
        appendLatencyJson(os, sh.latency);
        os << "}";
    }
    os << "]}";
    return os.str();
}

std::string
describe(const FleetSpec &spec)
{
    return std::string(schemeToken(spec.scheme)) + "/" + spec.workload +
           ", chaos " + spec.chaosProfile + ", seed " +
           std::to_string(spec.seed) + ", " + std::to_string(spec.shards) +
           " shards";
}

const cli::SpecHarness<FleetSpec, FleetResult> kFleet = {
    "fleet",
    "  \"tool\": \"hoop_fleet\",\n",
    runFleet,
    shrinkFleet,
    printResult,
    cellJson,
    [](const FleetSpec &spec) { return spec.chaosProfile; },
    describe,
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::vector<Scheme> schemes = cli::allSchemes();
    const std::vector<std::string> all_profiles = {"crashes", "stalls",
                                                   "faults", "mixed"};
    std::vector<std::string> profiles = all_profiles;
    std::string out_dir = ".";
    std::string json_path;
    std::string replay_path;
    FleetSpec base;
    std::uint64_t budget_ms = 0;

    const cli::Tool tool(
        "hoop_fleet",
        {
            {"--scheme S", "hoop|redo|undo|osp|lsm|lad|all   (default all)",
             cli::schemes(&schemes)},
            {"--chaos C",
             "none|crashes|stalls|faults|mixed|all\n"
             "(default all = crashes,stalls,faults,mixed)",
             [&](const std::string &v) {
                 if (v == "all")
                     profiles = all_profiles;
                 else if (chaosProfileKnown(v))
                     profiles = {v};
                 else
                     return false;
                 return true;
             }},
            {"--workload W",
             "vector|hashmap|queue|rbtree|btree|ycsb|tpcc\n"
             "(default vector)",
             cli::workload(&base.workload)},
            {"--shards N", "shard fault domains (default 4)",
             cli::count(&base.shards, 1)},
            {"--cores N", "cores per shard (default 2)",
             cli::count(&base.coresPerShard, 1, kMaxCores)},
            {"--requests N", "client requests per cell (default 1500)",
             cli::count(&base.requests, 1)},
            {"--seed N", "deterministic seed (default 42)",
             cli::count(&base.seed)},
            {"--warmup N", "warmup tx per core per shard (default 10)",
             cli::count(&base.warmupTx)},
            {"--threads N", "recovery threads (default 2)",
             cli::count(&base.recoverThreads)},
            {"--events N", "chaos events per shard (default 2)",
             cli::count(&base.chaosEventsPerShard)},
            {"--budget-ms N",
             "wall-clock watchdog: abort with exit code 3 if\n"
             "progress stalls longer than N ms (0 = off)",
             cli::count(&budget_ms)},
            {"--inject-ack-bug",
             "seeded bug self-test: shard 0 acks commits\n"
             "before durability; the run must detect it",
             cli::on(&base.injectAckBeforeDurable)},
            {"--out DIR", "write reproducer JSON files here (default .)",
             cli::text(&out_dir)},
            {"--json FILE", "write per-cell counters as JSON to FILE",
             cli::text(&json_path)},
            {"--replay FILE", "re-execute one fleet spec JSON and exit",
             cli::text(&replay_path)},
        });
    if (const auto rc = tool.parse(argc, argv))
        return *rc;
    if (!replay_path.empty())
        return cli::replaySpec(tool, kFleet, replay_path, budget_ms);
    if (const auto rc = tool.makeOutDir(out_dir))
        return *rc;

    std::vector<FleetSpec> cells;
    for (Scheme scheme : schemes) {
        for (const std::string &profile : profiles) {
            cells.push_back(base);
            cells.back().scheme = scheme;
            cells.back().chaosProfile = profile;
        }
    }
    return cli::runMatrix(kFleet, cells, out_dir, json_path, budget_ms);
}
