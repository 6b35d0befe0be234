#include "workloads/rbtree_wl.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workloads/value_pattern.hh"

namespace hoopnvm
{

namespace
{
constexpr std::uint64_t kRed = 0;
constexpr std::uint64_t kBlack = 1;
} // namespace

RbTreeWorkload::RbTreeWorkload(TxContext ctx_, std::size_t value_bytes,
                               std::uint64_t key_space)
    : Workload(std::move(ctx_)), valueBytes(value_bytes),
      keySpace(key_space)
{
}

std::uint64_t
RbTreeWorkload::fld(Addr n, std::uint64_t off)
{
    return ctx.load(n + off);
}

void
RbTreeWorkload::setFld(Addr n, std::uint64_t off, std::uint64_t v)
{
    ctx.store(n + off, v);
}

Addr
RbTreeWorkload::root()
{
    return ctx.load(rootPtr);
}

void
RbTreeWorkload::setRoot(Addr n)
{
    ctx.store(rootPtr, n);
}

void
RbTreeWorkload::setup()
{
    rootPtr = ctx.alloc(kWordSize, kCacheLineSize);
    shadow.clear();
}

void
RbTreeWorkload::rotateLeft(Addr x)
{
    const Addr y = fld(x, kRight);
    const Addr yl = fld(y, kLeft);
    setFld(x, kRight, yl);
    if (yl)
        setFld(yl, kParent, x);
    const Addr xp = fld(x, kParent);
    setFld(y, kParent, xp);
    if (!xp)
        setRoot(y);
    else if (fld(xp, kLeft) == x)
        setFld(xp, kLeft, y);
    else
        setFld(xp, kRight, y);
    setFld(y, kLeft, x);
    setFld(x, kParent, y);
}

void
RbTreeWorkload::rotateRight(Addr x)
{
    const Addr y = fld(x, kLeft);
    const Addr yr = fld(y, kRight);
    setFld(x, kLeft, yr);
    if (yr)
        setFld(yr, kParent, x);
    const Addr xp = fld(x, kParent);
    setFld(y, kParent, xp);
    if (!xp)
        setRoot(y);
    else if (fld(xp, kRight) == x)
        setFld(xp, kRight, y);
    else
        setFld(xp, kLeft, y);
    setFld(y, kRight, x);
    setFld(x, kParent, y);
}

void
RbTreeWorkload::insertFixup(Addr z)
{
    while (true) {
        const Addr zp = fld(z, kParent);
        if (!zp || fld(zp, kColor) == kBlack)
            break;
        const Addr zpp = fld(zp, kParent);
        if (fld(zpp, kLeft) == zp) {
            const Addr y = fld(zpp, kRight);
            if (y && fld(y, kColor) == kRed) {
                setFld(zp, kColor, kBlack);
                setFld(y, kColor, kBlack);
                setFld(zpp, kColor, kRed);
                z = zpp;
            } else {
                if (fld(zp, kRight) == z) {
                    z = zp;
                    rotateLeft(z);
                }
                const Addr p = fld(z, kParent);
                const Addr pp = fld(p, kParent);
                setFld(p, kColor, kBlack);
                setFld(pp, kColor, kRed);
                rotateRight(pp);
            }
        } else {
            const Addr y = fld(zpp, kLeft);
            if (y && fld(y, kColor) == kRed) {
                setFld(zp, kColor, kBlack);
                setFld(y, kColor, kBlack);
                setFld(zpp, kColor, kRed);
                z = zpp;
            } else {
                if (fld(zp, kLeft) == z) {
                    z = zp;
                    rotateRight(z);
                }
                const Addr p = fld(z, kParent);
                const Addr pp = fld(p, kParent);
                setFld(p, kColor, kBlack);
                setFld(pp, kColor, kRed);
                rotateLeft(pp);
            }
        }
    }
    const Addr r = root();
    if (r && fld(r, kColor) != kBlack)
        setFld(r, kColor, kBlack);
}

void
RbTreeWorkload::insert(std::uint64_t key, std::uint64_t version)
{
    const Addr z = ctx.alloc(nodeBytes(), kCacheLineSize);
    std::vector<std::uint8_t> buf(valueBytes);
    fillPattern(buf.data(), valueBytes, key, version);

    Addr y = 0;
    Addr x = root();
    while (x) {
        y = x;
        x = key < fld(x, kKey) ? fld(x, kLeft) : fld(x, kRight);
    }

    setFld(z, kKey, key);
    setFld(z, kLeft, 0);
    setFld(z, kRight, 0);
    setFld(z, kParent, y);
    setFld(z, kColor, kRed);
    setFld(z, kVersion, version);
    ctx.write(z + kValue, buf.data(), valueBytes);

    if (!y)
        setRoot(z);
    else if (key < fld(y, kKey))
        setFld(y, kLeft, z);
    else
        setFld(y, kRight, z);

    insertFixup(z);
}

Addr
RbTreeWorkload::search(std::uint64_t key)
{
    Addr x = root();
    while (x) {
        const std::uint64_t k = fld(x, kKey);
        if (k == key)
            return x;
        x = key < k ? fld(x, kLeft) : fld(x, kRight);
    }
    return 0;
}

void
RbTreeWorkload::runTransaction(std::uint64_t)
{
    // 70% inserts of fresh keys, 30% updates of existing ones.
    const bool update =
        !shadow.empty() &&
        (ctx.rng().nextBool(0.3) || shadow.size() >= keySpace / 2);

    if (update) {
        const std::uint64_t pick = ctx.rng().nextBounded(shadow.size());
        const std::uint64_t key = shadow[pick].first;
        const std::uint64_t ver = shadow[pick].second + 1;

        ctx.txBegin();
        const Addr n = search(key);
        HOOP_ASSERT(n != 0, "committed key missing from tree");
        // Fine-granularity update: bump the version and rewrite the
        // value's first two words (Table III: 2-10 stores/tx).
        setFld(n, kVersion, ver);
        setFld(n, kValue, patternWord(key, ver, 0));
        setFld(n, kValue + 8, patternWord(key, ver, 8));
        commitTx([this, pick, ver] { shadow[pick].second = ver; });
        return;
    }

    // Fresh key (keys are 1-based; retry on collision).
    std::uint64_t key;
    do {
        key = 1 + ctx.rng().nextBounded(keySpace);
    } while (shadow.contains(key));

    ctx.txBegin();
    insert(key, 0);
    commitTx([this, key] { shadow.insert(key, 0); });
}

int
RbTreeWorkload::checkNode(Addr n, std::uint64_t lo, std::uint64_t hi,
                          std::map<std::uint64_t, std::uint64_t> &seen,
                          std::set<Addr> &visited) const
{
    if (!n)
        return 1;
    // The walk runs over a possibly-corrupt NVM image: a torn child
    // pointer can point anywhere, including back into the tree. Reject
    // wild addresses before dereferencing them and cycles before they
    // overflow the stack — both are structural violations, not crashes.
    if (!ctx.debugAddrOk(n) || !visited.insert(n).second)
        return -1;
    const std::uint64_t key = ctx.debugLoad(n + kKey);
    if (key < lo || key > hi)
        return -1;
    const std::uint64_t color = ctx.debugLoad(n + kColor);
    const Addr l = ctx.debugLoad(n + kLeft);
    const Addr r = ctx.debugLoad(n + kRight);
    if (color == kRed) {
        if ((l && ctx.debugLoad(l + kColor) == kRed) ||
            (r && ctx.debugLoad(r + kColor) == kRed)) {
            return -1; // red-red violation
        }
    }
    const int lh = checkNode(l, lo, key, seen, visited);
    const int rh = checkNode(r, key, hi, seen, visited);
    if (lh < 0 || rh < 0 || lh != rh)
        return -1;
    seen[key] = ctx.debugLoad(n + kVersion);
    return lh + (color == kBlack ? 1 : 0);
}

bool
RbTreeWorkload::verifyStructure(std::string *why) const
{
    // Red-black properties from the NVM image alone: black root, no
    // red-red edge, equal black height on every path, BST ordering.
    std::map<std::uint64_t, std::uint64_t> seen;
    std::set<Addr> visited;
    const Addr r = ctx.debugLoad(rootPtr);
    if (r && !ctx.debugAddrOk(r)) {
        if (why)
            *why = "rbtree: root pointer is wild";
        return false;
    }
    if (r && ctx.debugLoad(r + kColor) != kBlack) {
        if (why)
            *why = "rbtree: root is red";
        return false;
    }
    if (checkNode(r, 0, ~std::uint64_t{0}, seen, visited) < 0) {
        if (why)
            *why = "rbtree: ordering, red-red, or black-height "
                   "violation";
        return false;
    }
    return true;
}

bool
RbTreeWorkload::verify() const
{
    std::map<std::uint64_t, std::uint64_t> seen;
    std::set<Addr> visited;
    const Addr r = ctx.debugLoad(rootPtr);
    if (r && !ctx.debugAddrOk(r))
        return false;
    if (r && ctx.debugLoad(r + kColor) != kBlack)
        return false;
    if (checkNode(r, 0, ~std::uint64_t{0}, seen, visited) < 0)
        return false;
    if (!std::equal(seen.begin(), seen.end(), shadow.begin(),
                    shadow.end(), [](const auto &a, const auto &b) {
                        return a.first == b.first && a.second == b.second;
                    }))
        return false;

    // Check payloads through untimed reads.
    for (const auto &kv : shadow) {
        // Untimed search.
        Addr x = r;
        while (x) {
            const std::uint64_t k = ctx.debugLoad(x + kKey);
            if (k == kv.first)
                break;
            x = kv.first < k ? ctx.debugLoad(x + kLeft)
                             : ctx.debugLoad(x + kRight);
        }
        if (!x)
            return false;
        // Words 0-1 carry the latest update; the rest keep the insert
        // pattern (version 0).
        if (ctx.debugLoad(x + kValue) !=
            patternWord(kv.first, kv.second, 0))
            return false;
        if (valueBytes >= 16 &&
            ctx.debugLoad(x + kValue + 8) !=
                patternWord(kv.first, kv.second, 8))
            return false;
        for (std::size_t off = 16; off < valueBytes; off += kWordSize) {
            if (ctx.debugLoad(x + kValue + off) !=
                patternWord(kv.first, 0, off))
                return false;
        }
    }
    return true;
}

} // namespace hoopnvm
