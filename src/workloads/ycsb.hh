/**
 * @file
 * YCSB driver (Table III: 8-32 stores/tx, 80% writes / 20% reads,
 * Zipfian key popularity, 512 B or 1 KB key-value pairs).
 *
 * Each core runs transactions against its own KvStore shard, as in the
 * paper's N-store setup where every thread owns its tables.
 */

#ifndef HOOPNVM_WORKLOADS_YCSB_HH
#define HOOPNVM_WORKLOADS_YCSB_HH

#include <unordered_map>

#include "common/zipfian.hh"
#include "workloads/kv_store.hh"
#include "workloads/workload.hh"

namespace hoopnvm
{

/** Yahoo Cloud Serving Benchmark update-heavy driver. */
class YcsbWorkload : public Workload
{
  public:
    /** Fraction of operations that are writes (paper: 80%). */
    static constexpr double kUpdateRatio = 0.8;

    /** Zipfian skew of key popularity (the YCSB default). */
    static constexpr double kTheta = 0.99;

    /**
     * @param value_bytes  Key-value pair size (512 or 1024).
     * @param records      Records per shard.
     */
    YcsbWorkload(TxContext ctx, std::size_t value_bytes,
                 std::uint64_t records);

    const char *name() const override { return "ycsb"; }
    void setup() override;
    void runTransaction(std::uint64_t i) override;
    bool verify() const override;

  private:
    KvStore store;
    ZipfianGenerator zipf;

    /** Committed key -> version. */
    std::unordered_map<std::uint64_t, std::uint64_t> shadow;
};

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_YCSB_HH
