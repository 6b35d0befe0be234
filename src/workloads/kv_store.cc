#include "workloads/kv_store.hh"

#include "common/logging.hh"
#include "workloads/value_pattern.hh"

namespace hoopnvm
{

KvStore::KvStore(TxContext *ctx_, std::uint64_t records,
                 std::size_t record_bytes)
    : ctx(ctx_), records_(records), recordBytes_(record_bytes)
{
    HOOP_ASSERT(recordBytes_ % kWordSize == 0,
                "record size must be a word multiple");
}

void
KvStore::create()
{
    base = ctx->alloc(records_ * recordBytes_, kCacheLineSize);
}

Addr
KvStore::slotAddr(std::uint64_t key) const
{
    HOOP_ASSERT(key < records_, "key %llu out of range",
                static_cast<unsigned long long>(key));
    return base + key * recordBytes_;
}

void
KvStore::seed(std::uint64_t key, const void *payload)
{
    ctx->init(slotAddr(key), payload, recordBytes_);
}

void
KvStore::putRegion(std::uint64_t key, std::uint64_t version)
{
    const std::size_t item_words = recordBytes_ / kWordSize;
    const std::size_t stride = regionStride(item_words);
    const std::size_t region = version % stride;
    for (std::size_t j = region; j < item_words; j += stride) {
        ctx->store(slotAddr(key) + j * kWordSize,
                   patternWord(key, version, j * kWordSize));
    }
}

void
KvStore::getRegion(std::uint64_t key, std::size_t r)
{
    const std::size_t item_words = recordBytes_ / kWordSize;
    const std::size_t stride = regionStride(item_words);
    for (std::size_t j = r % stride; j < item_words; j += stride)
        (void)ctx->load(slotAddr(key) + j * kWordSize);
}

std::uint64_t
KvStore::debugWord(std::uint64_t key, std::size_t w) const
{
    return ctx->debugLoad(slotAddr(key) + w * kWordSize);
}

} // namespace hoopnvm
