/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * slice encode/decode, mapping table, eviction buffer, skip list, and
 * the raw cache probe path. These guard the simulator's own
 * performance (host-side), not simulated time.
 *
 * The custom main wraps google-benchmark with a capturing reporter so
 * the per-benchmark timings also land in BENCH_micro_components.json
 * alongside the other benches' machine-readable reports.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "baselines/skiplist.hh"
#include "common/rng.hh"
#include "hoop/eviction_buffer.hh"
#include "hoop/mapping_table.hh"
#include "hoop/memory_slice.hh"
#include "mem/cache.hh"

using namespace hoopnvm;

namespace
{

void
BM_SliceEncodeDecode(benchmark::State &state)
{
    MemorySlice s;
    s.type = SliceType::Data;
    s.count = 8;
    s.txId = 1;
    s.seq = 2;
    for (unsigned i = 0; i < 8; ++i) {
        s.words[i] = i;
        s.homeAddrs[i] = 8 * i;
    }
    std::uint8_t buf[MemorySlice::kSliceBytes];
    for (auto _ : state) {
        s.encode(buf);
        benchmark::DoNotOptimize(MemorySlice::decode(buf));
    }
}
BENCHMARK(BM_SliceEncodeDecode);

void
BM_MappingTableLookup(benchmark::State &state)
{
    MappingTable t(miB(2));
    Rng rng(1);
    for (int i = 0; i < 100000; ++i)
        t.insert(rng.nextBounded(1 << 24) * 64, i, false);
    Rng probe(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            t.lookup(probe.nextBounded(1 << 24) * 64));
    }
}
BENCHMARK(BM_MappingTableLookup);

void
BM_EvictionBufferPutGet(benchmark::State &state)
{
    EvictionBuffer eb(kiB(128));
    std::uint8_t line[kCacheLineSize] = {};
    std::uint8_t out[kCacheLineSize];
    Rng rng(3);
    for (auto _ : state) {
        const Addr a = rng.nextBounded(4096) * 64;
        eb.put(a, line);
        benchmark::DoNotOptimize(eb.get(a, out));
    }
}
BENCHMARK(BM_EvictionBufferPutGet);

void
BM_SkipListFind(benchmark::State &state)
{
    SkipList s;
    for (std::uint64_t k = 0; k < 100000; ++k)
        s.insert(k * 64, k);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.find(rng.nextBounded(100000) * 64));
}
BENCHMARK(BM_SkipListFind);

void
BM_CacheProbe(benchmark::State &state)
{
    Cache c("bm", miB(2), 16, 0);
    std::uint8_t line[kCacheLineSize] = {};
    const CacheLineMeta clean{.txId = kInvalidTxId, .lastWriter = 0,
                              .wordMask = 0, .dirty = false,
                              .persistent = false};
    Rng fill(5);
    for (int i = 0; i < 20000; ++i)
        c.insert(fill.nextBounded(1 << 20) * 64, line, clean);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.probe(rng.nextBounded(1 << 20) * 64));
}
BENCHMARK(BM_CacheProbe);

/** Console reporter that also captures per-benchmark timings. */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Item
    {
        std::string name;
        double realNsPerIter;
        double cpuNsPerIter;
    };
    std::vector<Item> items;

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.error_occurred)
                continue;
            items.push_back({r.benchmark_name(),
                             r.GetAdjustedRealTime(),
                             r.GetAdjustedCPUTime()});
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    // google-benchmark takes its own --benchmark_* flags first; the
    // bench flags are whatever it leaves.
    benchmark::Initialize(&argc, argv);
    hoopnvm::bench::Bench bench(argc, argv, "micro_components", "",
                                hoopnvm::bench::paperConfig(), 0);
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    for (const auto &item : reporter.items) {
        bench.addTimed(item.name, item.realNsPerIter * 1e-9,
                       {{"real_ns_per_iter", item.realNsPerIter},
                        {"cpu_ns_per_iter", item.cpuNsPerIter}});
    }
    bench.write();
    return 0;
}
