#include "workloads/ycsb.hh"

#include "workloads/value_pattern.hh"

namespace hoopnvm
{

YcsbWorkload::YcsbWorkload(TxContext ctx_, std::size_t value_bytes,
                           std::uint64_t records)
    : Workload(std::move(ctx_)),
      store(&ctx, records, value_bytes),
      zipf(records, kTheta, 0xb0bacafe + ctx.core())
{
}

void
YcsbWorkload::setup()
{
    store.create();
    std::vector<std::uint8_t> buf(store.recordBytes());
    for (std::uint64_t k = 0; k < store.records(); ++k) {
        fillPattern(buf.data(), buf.size(), k, 0);
        store.seed(k, buf.data());
    }
    shadow.clear();
}

void
YcsbWorkload::runTransaction(std::uint64_t)
{
    // Each transaction performs a handful of field-granular record
    // operations (YCSB updates rewrite one field, not the whole
    // value): an update writes one interleaved region — eight
    // scattered words — and a read fetches one region. With 1-4
    // operations at 80% updates this lands in Table III's 8-32
    // stores/tx band.
    const unsigned ops =
        static_cast<unsigned>(ctx.rng().nextRange(1, 4));
    const std::size_t item_words = store.recordBytes() / kWordSize;
    const std::size_t stride = regionStride(item_words);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> staged;
    staged.reserve(ops);

    ctx.txBegin();
    for (unsigned op = 0; op < ops; ++op) {
        const std::uint64_t key = zipf.next();
        if (ctx.rng().nextBool(kUpdateRatio)) {
            auto it = shadow.find(key);
            std::uint64_t ver = it == shadow.end() ? 1 : it->second + 1;
            // Later ops in this tx may bump the same key again.
            for (const auto &s : staged) {
                if (s.first == key)
                    ver = s.second + 1;
            }
            store.putRegion(key, ver);
            staged.emplace_back(key, ver);
        } else {
            store.getRegion(key,
                            ctx.rng().nextBounded(stride));
        }
    }
    commitTx([this, staged] {
        for (const auto &s : staged)
            shadow[s.first] = s.second;
    });
}

bool
YcsbWorkload::verify() const
{
    const std::size_t item_words = store.recordBytes() / kWordSize;
    // lint: unordered-iter-ok (read-only verification over untimed debug loads; all entries must pass)
    for (const auto &kv : shadow) {
        for (std::size_t w = 0; w < item_words; ++w) {
            if (store.debugWord(kv.first, w) !=
                expectedWord(kv.first, kv.second, w, item_words)) {
                return false;
            }
        }
    }
    return true;
}

} // namespace hoopnvm
