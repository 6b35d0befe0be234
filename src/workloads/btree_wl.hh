/**
 * @file
 * Persistent B-tree workload (Table III: 2-12 stores/tx).
 *
 * A CLRS-style B-tree of minimum degree 4 (up to 7 keys per node) in
 * simulated NVM. Values are pointers to per-key payload records. Each
 * transaction inserts a fresh key (occasionally triggering node splits,
 * the high end of the store range) or updates an existing payload.
 */

#ifndef HOOPNVM_WORKLOADS_BTREE_WL_HH
#define HOOPNVM_WORKLOADS_BTREE_WL_HH

#include <map>
#include <set>

#include "workloads/sorted_shadow.hh"
#include "workloads/workload.hh"

namespace hoopnvm
{

/** Transactional B-tree with out-of-node payloads. */
class BTreeWorkload : public Workload
{
  public:
    BTreeWorkload(TxContext ctx, std::size_t value_bytes,
                  std::uint64_t key_space);

    const char *name() const override { return "btree"; }
    void setup() override;
    void runTransaction(std::uint64_t i) override;
    bool verify() const override;
    bool verifyStructure(std::string *why = nullptr) const override;

  private:
    static constexpr unsigned kMinDegree = 4;           // t
    static constexpr unsigned kMaxKeys = 2 * kMinDegree - 1;

    // Node field offsets.
    static constexpr std::uint64_t kLeaf = 0;
    static constexpr std::uint64_t kCount = 8;
    static constexpr std::uint64_t kKeys = 16;                   // [7]
    static constexpr std::uint64_t kVals = kKeys + 8 * kMaxKeys; // [7]
    static constexpr std::uint64_t kKids = kVals + 8 * kMaxKeys; // [8]
    static constexpr std::uint64_t kNodeBytes = kKids + 8 * (kMaxKeys + 1);

    Addr allocNode(bool leaf);

    std::uint64_t keyAt(Addr n, unsigned i);
    std::uint64_t valAt(Addr n, unsigned i);
    Addr kidAt(Addr n, unsigned i);
    void setKeyAt(Addr n, unsigned i, std::uint64_t k);
    void setValAt(Addr n, unsigned i, std::uint64_t v);
    void setKidAt(Addr n, unsigned i, Addr kid);

    /** Split the full i-th child of @p parent. */
    void splitChild(Addr parent, unsigned i);

    /** Insert into a node known to be non-full. */
    void insertNonFull(Addr n, std::uint64_t key, Addr payload);

    void insert(std::uint64_t key, Addr payload);

    /** Timed search. @return payload address or 0. */
    Addr search(std::uint64_t key);

    /** Untimed structural walk collecting key -> payload address.
     *  @p visited breaks cycles a torn child pointer may have formed
     *  in the crash image. */
    bool collect(Addr n, std::uint64_t lo, std::uint64_t hi,
                 std::map<std::uint64_t, Addr> &out,
                 std::set<Addr> &visited) const;

    /** Recursive invariant check: ordering, occupancy, leaf depth,
     *  pointer sanity (cycles and wild addresses are violations). */
    bool checkNodeInvariants(Addr n, std::uint64_t lo, std::uint64_t hi,
                             unsigned depth, long &leaf_depth,
                             bool is_root, std::set<Addr> &visited,
                             std::string *why) const;

    std::size_t valueBytes;
    std::uint64_t keySpace;
    Addr rootPtr = kInvalidAddr;

    /** Committed key -> version. */
    SortedShadow shadow;
};

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_BTREE_WL_HH
