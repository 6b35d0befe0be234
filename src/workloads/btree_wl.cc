#include "workloads/btree_wl.hh"

#include "common/logging.hh"
#include "workloads/value_pattern.hh"

namespace hoopnvm
{

BTreeWorkload::BTreeWorkload(TxContext ctx_, std::size_t value_bytes,
                             std::uint64_t key_space)
    : Workload(std::move(ctx_)), valueBytes(value_bytes),
      keySpace(key_space)
{
}

Addr
BTreeWorkload::allocNode(bool leaf)
{
    const Addr n = ctx.alloc(kNodeBytes, kCacheLineSize);
    ctx.store(n + kLeaf, leaf ? 1 : 0);
    ctx.store(n + kCount, 0);
    return n;
}

std::uint64_t
BTreeWorkload::keyAt(Addr n, unsigned i)
{
    return ctx.load(n + kKeys + 8 * i);
}

std::uint64_t
BTreeWorkload::valAt(Addr n, unsigned i)
{
    return ctx.load(n + kVals + 8 * i);
}

Addr
BTreeWorkload::kidAt(Addr n, unsigned i)
{
    return ctx.load(n + kKids + 8 * i);
}

void
BTreeWorkload::setKeyAt(Addr n, unsigned i, std::uint64_t k)
{
    ctx.store(n + kKeys + 8 * i, k);
}

void
BTreeWorkload::setValAt(Addr n, unsigned i, std::uint64_t v)
{
    ctx.store(n + kVals + 8 * i, v);
}

void
BTreeWorkload::setKidAt(Addr n, unsigned i, Addr kid)
{
    ctx.store(n + kKids + 8 * i, kid);
}

void
BTreeWorkload::setup()
{
    rootPtr = ctx.alloc(kWordSize, kCacheLineSize);
    shadow.clear();
}

void
BTreeWorkload::splitChild(Addr parent, unsigned i)
{
    const Addr full = kidAt(parent, i);
    const bool leaf = ctx.load(full + kLeaf) != 0;
    const Addr fresh = allocNode(leaf);
    constexpr unsigned t = kMinDegree;

    // Move the upper t-1 keys (and t children) into the fresh node.
    for (unsigned j = 0; j < t - 1; ++j) {
        setKeyAt(fresh, j, keyAt(full, j + t));
        setValAt(fresh, j, valAt(full, j + t));
    }
    if (!leaf) {
        for (unsigned j = 0; j < t; ++j)
            setKidAt(fresh, j, kidAt(full, j + t));
    }
    ctx.store(fresh + kCount, t - 1);
    ctx.store(full + kCount, t - 1);

    // Shift the parent's keys/children right and link the fresh node.
    const unsigned pc =
        static_cast<unsigned>(ctx.load(parent + kCount));
    for (unsigned j = pc; j > i; --j) {
        setKeyAt(parent, j, keyAt(parent, j - 1));
        setValAt(parent, j, valAt(parent, j - 1));
        setKidAt(parent, j + 1, kidAt(parent, j));
    }
    setKidAt(parent, i + 1, fresh);
    setKeyAt(parent, i, keyAt(full, t - 1));
    setValAt(parent, i, valAt(full, t - 1));
    ctx.store(parent + kCount, pc + 1);
}

void
BTreeWorkload::insertNonFull(Addr n, std::uint64_t key, Addr payload)
{
    while (true) {
        int i = static_cast<int>(ctx.load(n + kCount)) - 1;
        if (ctx.load(n + kLeaf)) {
            // Shift larger keys right and place the new one.
            while (i >= 0 && key < keyAt(n, static_cast<unsigned>(i))) {
                setKeyAt(n, static_cast<unsigned>(i + 1),
                         keyAt(n, static_cast<unsigned>(i)));
                setValAt(n, static_cast<unsigned>(i + 1),
                         valAt(n, static_cast<unsigned>(i)));
                --i;
            }
            setKeyAt(n, static_cast<unsigned>(i + 1), key);
            setValAt(n, static_cast<unsigned>(i + 1), payload);
            ctx.store(n + kCount, ctx.load(n + kCount) + 1);
            return;
        }
        while (i >= 0 && key < keyAt(n, static_cast<unsigned>(i)))
            --i;
        unsigned child = static_cast<unsigned>(i + 1);
        Addr c = kidAt(n, child);
        if (ctx.load(c + kCount) == kMaxKeys) {
            splitChild(n, child);
            if (key > keyAt(n, child))
                ++child;
            c = kidAt(n, child);
        }
        n = c;
    }
}

void
BTreeWorkload::insert(std::uint64_t key, Addr payload)
{
    Addr r = ctx.load(rootPtr);
    if (!r) {
        r = allocNode(true);
        ctx.store(rootPtr, r);
    }
    if (ctx.load(r + kCount) == kMaxKeys) {
        const Addr s = allocNode(false);
        setKidAt(s, 0, r);
        ctx.store(rootPtr, s);
        splitChild(s, 0);
        insertNonFull(s, key, payload);
        return;
    }
    insertNonFull(r, key, payload);
}

Addr
BTreeWorkload::search(std::uint64_t key)
{
    Addr n = ctx.load(rootPtr);
    while (n) {
        const unsigned count =
            static_cast<unsigned>(ctx.load(n + kCount));
        unsigned i = 0;
        while (i < count && key > keyAt(n, i))
            ++i;
        if (i < count && keyAt(n, i) == key)
            return valAt(n, i);
        if (ctx.load(n + kLeaf))
            return 0;
        n = kidAt(n, i);
    }
    return 0;
}

void
BTreeWorkload::runTransaction(std::uint64_t)
{
    const bool update =
        !shadow.empty() &&
        (ctx.rng().nextBool(0.3) || shadow.size() >= keySpace / 2);
    std::vector<std::uint8_t> buf(valueBytes);

    if (update) {
        const std::uint64_t pick = ctx.rng().nextBounded(shadow.size());
        const std::uint64_t key = shadow[pick].first;
        const std::uint64_t ver = shadow[pick].second + 1;

        ctx.txBegin();
        const Addr payload = search(key);
        HOOP_ASSERT(payload != 0, "committed key missing from B-tree");
        // Fine-granularity update: version plus the first two payload
        // words (Table III: 2-12 stores/tx).
        ctx.store(payload, ver);
        ctx.store(payload + kWordSize, patternWord(key, ver, 0));
        if (valueBytes >= 16)
            ctx.store(payload + 2 * kWordSize,
                      patternWord(key, ver, 8));
        commitTx([this, pick, ver] { shadow[pick].second = ver; });
        return;
    }

    std::uint64_t key;
    do {
        key = 1 + ctx.rng().nextBounded(keySpace);
    } while (shadow.contains(key));

    ctx.txBegin();
    const Addr payload =
        ctx.alloc(kWordSize + valueBytes, kCacheLineSize);
    ctx.store(payload, 0);
    fillPattern(buf.data(), valueBytes, key, 0);
    ctx.write(payload + kWordSize, buf.data(), valueBytes);
    insert(key, payload);
    commitTx([this, key] { shadow.insert(key, 0); });
}

bool
BTreeWorkload::collect(Addr n, std::uint64_t lo, std::uint64_t hi,
                       std::map<std::uint64_t, Addr> &out,
                       std::set<Addr> &visited) const
{
    if (!n)
        return true;
    // Wild or cyclic child pointers (torn crash image) fail the walk
    // instead of dereferencing garbage or recursing forever.
    if (!ctx.debugAddrOk(n) || !visited.insert(n).second)
        return false;
    const bool leaf = ctx.debugLoad(n + kLeaf) != 0;
    const unsigned count =
        static_cast<unsigned>(ctx.debugLoad(n + kCount));
    if (count > kMaxKeys)
        return false;
    std::uint64_t prev = lo;
    for (unsigned i = 0; i < count; ++i) {
        const std::uint64_t key = ctx.debugLoad(n + kKeys + 8 * i);
        if (key < prev || key > hi)
            return false;
        if (!leaf &&
            !collect(ctx.debugLoad(n + kKids + 8 * i), prev, key, out,
                     visited))
            return false;
        out[key] = ctx.debugLoad(n + kVals + 8 * i);
        prev = key;
    }
    if (!leaf &&
        !collect(ctx.debugLoad(n + kKids + 8 * count), prev, hi, out,
                 visited))
        return false;
    return true;
}

bool
BTreeWorkload::checkNodeInvariants(Addr n, std::uint64_t lo,
                                   std::uint64_t hi, unsigned depth,
                                   long &leaf_depth, bool is_root,
                                   std::set<Addr> &visited,
                                   std::string *why) const
{
    if (!ctx.debugAddrOk(n) || !visited.insert(n).second) {
        if (why)
            *why = "btree: wild or cyclic node pointer";
        return false;
    }
    const bool leaf = ctx.debugLoad(n + kLeaf) != 0;
    const unsigned count =
        static_cast<unsigned>(ctx.debugLoad(n + kCount));
    if (count > kMaxKeys) {
        if (why)
            *why = "btree: node overfull (count " +
                   std::to_string(count) + " > " +
                   std::to_string(kMaxKeys) + ")";
        return false;
    }
    if (!is_root && count < kMinDegree - 1) {
        if (why)
            *why = "btree: non-root node underfull (count " +
                   std::to_string(count) + " < " +
                   std::to_string(kMinDegree - 1) + ")";
        return false;
    }
    if (is_root && !leaf && count == 0) {
        if (why)
            *why = "btree: internal root with zero keys";
        return false;
    }
    if (leaf) {
        if (leaf_depth < 0)
            leaf_depth = static_cast<long>(depth);
        else if (leaf_depth != static_cast<long>(depth)) {
            if (why)
                *why = "btree: leaves at unequal depths " +
                       std::to_string(leaf_depth) + " and " +
                       std::to_string(depth);
            return false;
        }
    }
    std::uint64_t prev = lo;
    for (unsigned i = 0; i < count; ++i) {
        const std::uint64_t key = ctx.debugLoad(n + kKeys + 8 * i);
        if (key <= prev || key >= hi) {
            if (why)
                *why = "btree: key " + std::to_string(key) +
                       " violates ordering bounds (" +
                       std::to_string(prev) + ", " +
                       std::to_string(hi) + ")";
            return false;
        }
        if (!leaf &&
            !checkNodeInvariants(ctx.debugLoad(n + kKids + 8 * i), prev,
                                 key, depth + 1, leaf_depth, false,
                                 visited, why))
            return false;
        prev = key;
    }
    if (!leaf &&
        !checkNodeInvariants(ctx.debugLoad(n + kKids + 8 * count), prev,
                             hi, depth + 1, leaf_depth, false, visited,
                             why))
        return false;
    return true;
}

bool
BTreeWorkload::verifyStructure(std::string *why) const
{
    // Classic B-tree invariants from the NVM image alone: strict key
    // ordering, per-node occupancy bounds, and uniform leaf depth.
    // Keys are 1-based so exclusive bounds (0, ~0) cover the root.
    const Addr root = ctx.debugLoad(rootPtr);
    if (!root)
        return true;
    long leaf_depth = -1;
    std::set<Addr> visited;
    return checkNodeInvariants(root, 0, ~std::uint64_t{0}, 0,
                               leaf_depth, true, visited, why);
}

bool
BTreeWorkload::verify() const
{
    std::map<std::uint64_t, Addr> found;
    std::set<Addr> visited;
    if (!collect(ctx.debugLoad(rootPtr), 0, ~std::uint64_t{0}, found,
                 visited))
        return false;
    if (found.size() != shadow.size())
        return false;
    for (const auto &kv : shadow) {
        auto it = found.find(kv.first);
        if (it == found.end())
            return false;
        if (ctx.debugLoad(it->second) != kv.second)
            return false;
        // Words 0-1 carry the latest update; the rest keep the insert
        // pattern (version 0).
        if (ctx.debugLoad(it->second + kWordSize) !=
            patternWord(kv.first, kv.second, 0))
            return false;
        if (valueBytes >= 16 &&
            ctx.debugLoad(it->second + 2 * kWordSize) !=
                patternWord(kv.first, kv.second, 8))
            return false;
        for (std::size_t off = 16; off < valueBytes; off += kWordSize) {
            if (ctx.debugLoad(it->second + kWordSize + off) !=
                patternWord(kv.first, 0, off))
                return false;
        }
    }
    return true;
}

} // namespace hoopnvm
