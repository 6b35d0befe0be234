/**
 * @file
 * Embedded fixtures for hoop_lint's rules.
 *
 * Each rule ships with a seeded-bad snippet that must make exactly
 * that rule fire, mirroring ordercheck's seeded-bug knobs: a rule
 * that cannot be proven live by its fixture is a dead rule, and
 * tests/lint_test.cc fails on it. The snippets live inside string
 * literals, and the scanner strips literal contents before matching,
 * so this file itself lints clean.
 */

#include "lint/lint.hh"

namespace hoopnvm
{
namespace lint
{

namespace
{

const char *kBadNondet = R"lint(
#include <random>
unsigned pick()
{
    std::random_device rd;
    srand(42);
    return rand() % 7;
}
double wall()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}
const char *env() { return getenv("HOOP_MODE"); }
)lint";

const char *kBadUnordered = R"lint(
#include <unordered_map>
std::unordered_map<std::uint64_t, std::uint64_t> shadow;
void dump()
{
    for (const auto &kv : shadow)
        printf("%llu\n", kv.second);
}
)lint";

const char *kBadPtrKey = R"lint(
#include <map>
struct Node;
std::map<Node *, int> ranks;
std::unordered_set<const Node *> seen;
)lint";

const char *kBadStatsLookup = R"lint(
struct Gc
{
    explicit Gc(StatSet &stats) : stats_(stats) {}
    void run()
    {
        stats_.counter("gc_runs") += 1;
        stats_.histogram("gc_pause_ticks").record(7);
    }
    StatSet &stats_;
};
)lint";

const char *kBadRawJson = R"lint(
#include <string>
std::string toJson(const std::string &workload)
{
    std::string out = "{";
    out += std::string("\"workload\": ") + "\"" + workload + "\"";
    std::fprintf(f, "\"label\": \"%s\"", label.c_str());
    return out + "}";
}
)lint";

const char *kBadFatal = R"lint(
void admit(unsigned free_blocks)
{
    if (free_blocks == 0)
        HOOP_FATAL("oop region exhausted");
}
)lint";

const char *kBadFloatEq = R"lint(
bool saturated(double ratio, double miss)
{
    if (ratio == 1.0)
        return true;
    return miss != 0.25;
}
)lint";

// Quiet under every rule: seeded rng, sorted iteration, id keys,
// constructor-resolved counters, escaped JSON, structured rejection,
// integer comparisons.
const char *kClean = R"lint(
#include <map>
#include <vector>
struct Ctl
{
    explicit Ctl(StatSet &stats)
        : stats_(stats), txC_(stats.counter("tx")),
          pauseH_(stats.histogram("pause_ticks"))
    {
    }
    void run(Rng &rng)
    {
        txC_ += rng.nextU64() % 3;
        pauseH_.record(simTicks());
        if (exhausted())
            throw TxRejected{RejectCause::OopExhausted, 0};
    }
    std::string json(const std::string &wl) const
    {
        return std::string("{\"workload\": ") + jsonQuote(wl) + "}";
    }
    bool idle(std::uint64_t n) const { return n == 0; }
    StatSet &stats_;
    Counter &txC_;
    Histogram &pauseH_;
    std::map<std::uint64_t, int> byId_;
};
void walk(const Ctl &c)
{
    std::vector<std::uint64_t> keys = sortedKeys(c.byId_);
    for (std::uint64_t k : keys)
        use(k);
}
)lint";

} // namespace

const std::vector<Fixture> &
badFixtures()
{
    static const std::vector<Fixture> fixtures = {
        {"nondet-api", "src/fixture/bad_nondet.cc", kBadNondet},
        {"unordered-iter", "src/fixture/bad_unordered.cc",
         kBadUnordered},
        {"ptr-key", "src/fixture/bad_ptr_key.cc", kBadPtrKey},
        {"stats-lookup", "src/fixture/bad_stats_lookup.cc",
         kBadStatsLookup},
        {"raw-json", "src/fixture/bad_raw_json.cc", kBadRawJson},
        {"fatal-in-txpath", "src/fixture/bad_fatal.cc", kBadFatal},
        {"float-eq", "src/fixture/bad_float_eq.cc", kBadFloatEq},
    };
    return fixtures;
}

const SourceFile &
cleanFixture()
{
    static const SourceFile clean{"src/fixture/clean.cc", kClean};
    return clean;
}

} // namespace lint
} // namespace hoopnvm
