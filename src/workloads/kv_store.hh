/**
 * @file
 * A minimal transactional record store (the N-store stand-in).
 *
 * The paper drives YCSB and TPC-C through an N-store database; what the
 * memory system observes is the per-transaction load/store footprint
 * over fixed-size records. KvStore provides exactly that for YCSB (and
 * so the kvstore example): a table of slotted records in simulated NVM
 * with field-granular transactional reads and updates. TPC-C keeps its
 * own tables (workloads/tpcc.hh).
 */

#ifndef HOOPNVM_WORKLOADS_KV_STORE_HH
#define HOOPNVM_WORKLOADS_KV_STORE_HH

#include <cstdint>
#include <vector>

#include "txn/tx_context.hh"

namespace hoopnvm
{

/** Fixed-slot record table in simulated NVM. */
class KvStore
{
  public:
    /**
     * @param ctx          Accessor of the owning core.
     * @param records      Number of record slots.
     * @param record_bytes Payload bytes per record (word multiple).
     */
    KvStore(TxContext *ctx, std::uint64_t records,
            std::size_t record_bytes);

    /** Allocate the table (call once, outside transactions). */
    void create();

    /** Initialize record @p key untimed (pre-population). */
    void seed(std::uint64_t key, const void *payload);

    /**
     * Field-granular update: rewrite the interleaved region selected
     * by @p version with the (key, version) pattern — eight scattered
     * word stores (the YCSB "update one field" behaviour).
     */
    void putRegion(std::uint64_t key, std::uint64_t version);

    /** Field-granular read of region @p r (eight scattered loads). */
    void getRegion(std::uint64_t key, std::size_t r);

    /** Untimed word read for verification. */
    std::uint64_t debugWord(std::uint64_t key, std::size_t w) const;

    std::uint64_t records() const { return records_; }
    std::size_t recordBytes() const { return recordBytes_; }

  private:
    Addr slotAddr(std::uint64_t key) const;

    TxContext *ctx;
    std::uint64_t records_;
    std::size_t recordBytes_;
    Addr base = kInvalidAddr;
};

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_KV_STORE_HH
