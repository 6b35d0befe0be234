/**
 * @file
 * Persistent red-black tree workload (Table III: 2-10 stores/tx).
 *
 * A full CLRS-style red-black tree lives in simulated NVM; every node
 * access is a timed load/store. Each transaction performs one insert
 * (new random key) or one update (existing key), so the store count
 * per transaction varies with rebalancing — matching the paper's
 * 2-10 stores/tx range.
 */

#ifndef HOOPNVM_WORKLOADS_RBTREE_WL_HH
#define HOOPNVM_WORKLOADS_RBTREE_WL_HH

#include <map>
#include <set>

#include "workloads/sorted_shadow.hh"
#include "workloads/workload.hh"

namespace hoopnvm
{

/** Transactional red-black tree. */
class RbTreeWorkload : public Workload
{
  public:
    RbTreeWorkload(TxContext ctx, std::size_t value_bytes,
                   std::uint64_t key_space);

    const char *name() const override { return "rbtree"; }
    void setup() override;
    void runTransaction(std::uint64_t i) override;
    bool verify() const override;
    bool verifyStructure(std::string *why = nullptr) const override;

  private:
    // Node field offsets (node payload follows the header).
    static constexpr std::uint64_t kKey = 0;
    static constexpr std::uint64_t kLeft = 8;
    static constexpr std::uint64_t kRight = 16;
    static constexpr std::uint64_t kParent = 24;
    static constexpr std::uint64_t kColor = 32; // 0 = red, 1 = black
    static constexpr std::uint64_t kVersion = 40;
    static constexpr std::uint64_t kValue = 48;

    std::uint64_t nodeBytes() const { return kValue + valueBytes; }

    // Timed field accessors.
    std::uint64_t fld(Addr n, std::uint64_t off);
    void setFld(Addr n, std::uint64_t off, std::uint64_t v);

    Addr root();
    void setRoot(Addr n);

    void rotateLeft(Addr x);
    void rotateRight(Addr x);
    void insertFixup(Addr z);
    void insert(std::uint64_t key, std::uint64_t version);

    /** Timed search. @return node address or 0. */
    Addr search(std::uint64_t key);

    /** Untimed recursive structural check over a possibly-corrupt
     *  image: @p visited breaks pointer cycles a torn write may have
     *  formed. @return black height or -1 on violation. */
    int checkNode(Addr n, std::uint64_t lo, std::uint64_t hi,
                  std::map<std::uint64_t, std::uint64_t> &seen,
                  std::set<Addr> &visited) const;

    std::size_t valueBytes;
    std::uint64_t keySpace;
    Addr rootPtr = kInvalidAddr;

    /** Committed key -> version. */
    SortedShadow shadow;
};

} // namespace hoopnvm

#endif // HOOPNVM_WORKLOADS_RBTREE_WL_HH
