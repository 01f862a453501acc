/**
 * @file
 * SpillableOrderedSet — a paged sorted-vector ordered set/map for the
 * off-line oracle (OPG's deterministic-miss sets and its
 * resident-by-next-access index) whose pages overflow to disk under a
 * SpillPool byte budget.
 *
 * Oracle replay hammers these containers with three queries:
 * predecessor/successor around a probe key (gap pricing), ordered
 * range scans (gap-scoped repricing), and steady insert/erase churn.
 * A node-based std::set answers each with O(log n) *dependent* cache
 * misses; this container keeps elements in sorted pages of at most
 * kPageCap contiguous keys instead:
 *
 *  - locate = one binary search over a contiguous, always-resident
 *    index of page maxima + one binary search inside the page;
 *  - insert/erase = a memmove of whichever side of the position is
 *    shorter (each page keeps a dead prefix before `start`, so
 *    erase-at-minimum — OPG's deterministic-miss retirement pattern
 *    — is an O(1) bump);
 *  - neighbors() answers predecessor, successor, and membership in a
 *    single locate, the exact shape of OPG's penalty query.
 *
 * The optional Mapped parameter turns the set into an ordered map
 * with a parallel value array per page; Mapped = void stores no
 * values. Keys must be less-comparable and are kept unique.
 *
 * Residency: page payloads live in reusable slabs registered with a
 * shared SpillPool; when the pool's budget overflows,
 * least-recently-touched pages are serialized into fixed-size slots
 * of the pool's unlinked spill file and dropped from RAM, then
 * faulted back (one pread) on the next touch. A pool with an
 * unbounded budget never spills and never creates the file.
 *
 * Exact by construction: spilling changes *where* a page's bytes
 * live, never what they are, so every query answers exactly what an
 * unbounded pool's set would — including neighbors() across page
 * boundaries, which is answered from the always-resident per-page
 * [minKey, maxKey] metadata without faulting adjacent pages. Keys
 * and mapped values must be trivially copyable (they are memcpy'd
 * through spill slots).
 *
 * Usage contract: attach() a pool before the first insert; query
 * methods are const but may fault pages in and out (physical state
 * is mutable by design); pointers returned by find() are valid only
 * until the next operation on any container sharing the pool; range
 * visitors must not mutate pool-sharing containers.
 */

#ifndef PACACHE_UTIL_SPILL_SET_HH
#define PACACHE_UTIL_SPILL_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/spill_pool.hh"

namespace pacache
{

namespace detail
{
/** Stand-in value type for the set form (Mapped = void). */
struct NoMapped
{
    friend bool operator==(const NoMapped &, const NoMapped &) = default;
};
} // namespace detail

/** Budget-spillable ordered set/map; see the file comment. */
template <typename Key, typename Mapped = void>
class SpillableOrderedSet : public SpillClient
{
    static constexpr bool kHasMapped = !std::is_void_v<Mapped>;
    using Value =
        std::conditional_t<kHasMapped, Mapped, detail::NoMapped>;
    static_assert(std::is_trivially_copyable_v<Key>,
                  "spillable keys are memcpy'd through spill slots");
    static_assert(std::is_trivially_copyable_v<Value>,
                  "spillable values are memcpy'd through spill slots");

  public:
    /** Predecessor/successor/membership answered by one locate. */
    struct Neighbors
    {
        bool hasPred = false;
        bool hasSucc = false;
        bool present = false;
        Key pred{};
        Key succ{};
    };

    SpillableOrderedSet() = default;

    ~SpillableOrderedSet() override
    {
        if (pool)
            clear();
    }

    SpillableOrderedSet(const SpillableOrderedSet &) = delete;
    SpillableOrderedSet &
    operator=(const SpillableOrderedSet &) = delete;

    /**
     * Moves are only for container setup (vector growth before
     * attach); the pool holds a SpillClient pointer afterwards, so a
     * populated set must stay put.
     */
    SpillableOrderedSet(SpillableOrderedSet &&other) noexcept
    {
        PACACHE_ASSERT(other.pool == nullptr && other.count == 0,
                       "cannot move an attached SpillableOrderedSet");
    }

    /** Bind to the pool that budgets this set's resident pages. */
    void
    attach(SpillPool &p)
    {
        PACACHE_ASSERT(pool == nullptr || count == 0,
                       "re-attach of a populated SpillableOrderedSet");
        pool = &p;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Drop all elements and return every slot; stays attached. */
    void
    clear()
    {
        for (std::uint32_t id : order) {
            Meta &m = metas[id];
            if (m.slab != kNone32)
                pool->remove(m.token);
            if (m.slot != SpillPool::kNoSlot)
                pool->freeSlot(m.slot, slotBytes());
        }
        metas.clear();
        freeMetas.clear();
        order.clear();
        maxes.clear();
        slabs.clear();
        freeSlabs.clear();
        count = 0;
    }

    /** Insert a key (set form). @return false if already present. */
    bool
    insert(const Key &k)
        requires(!kHasMapped)
    {
        return insertImpl(k, Value{});
    }

    /** Insert a key → value pair. @return false if key present. */
    bool
    insert(const Key &k, Value v)
        requires(kHasMapped)
    {
        return insertImpl(k, std::move(v));
    }

    /** @return true if the key was present and is now removed. */
    bool
    erase(const Key &k)
    {
        const std::size_t oi = pageFor(k);
        if (oi == order.size())
            return false;
        const std::uint32_t id = acquire(oi);
        Slab &s = slabs[metas[id].slab];
        const std::size_t pos = lowerBound(s, k);
        if (pos == s.keys.size() || !(s.keys[pos] == k)) {
            release(id);
            return false;
        }
        if (!eraseAt(oi, id, pos))
            release(id);
        return true;
    }

    /** Erase @p k reporting its neighbors in the same locate. */
    bool
    eraseWithNeighbors(const Key &k, Neighbors &nb)
    {
        nb = Neighbors{};
        const std::size_t oi = pageFor(k);
        if (oi == order.size()) {
            if (!order.empty()) {
                nb.hasPred = true;
                nb.pred = maxes.back();
            }
            return false;
        }
        const std::uint32_t id = acquire(oi);
        const std::size_t pos = fillNeighbors(oi, id, k, nb);
        if (!nb.present) {
            release(id);
            return false;
        }
        if (!eraseAt(oi, id, pos))
            release(id);
        return true;
    }

    /** Insert @p k reporting the neighbors it landed between. */
    bool
    insertWithNeighbors(const Key &k, Neighbors &nb)
        requires(!kHasMapped)
    {
        nb = Neighbors{};
        if (order.empty()) {
            insertImpl(k, Value{});
            return true;
        }
        if (maxes.back() < k) {
            nb.hasPred = true;
            nb.pred = maxes.back();
            appendToLast(k, Value{});
            return true;
        }
        const std::size_t oi = pageFor(k);
        const std::uint32_t id = acquire(oi);
        const std::size_t pos = fillNeighbors(oi, id, k, nb);
        if (nb.present) {
            release(id);
            return false;
        }
        insertAt(oi, id, pos, k, Value{});
        release(id);
        return true;
    }

    bool
    contains(const Key &k) const
    {
        auto *self = mut();
        const std::size_t oi = self->pageFor(k);
        if (oi == order.size())
            return false;
        const std::uint32_t id = self->acquire(oi);
        const Slab &s = self->slabs[self->metas[id].slab];
        const std::size_t pos = lowerBound(s, k);
        const bool hit =
            pos < s.keys.size() && s.keys[pos] == k;
        self->release(id);
        return hit;
    }

    /**
     * @return pointer to the mapped value, or null. The pointer is
     * valid only until the next operation on any pool-sharing
     * container (the page may spill).
     */
    const Mapped *
    find(const Key &k) const
        requires(kHasMapped)
    {
        auto *self = mut();
        const std::size_t oi = self->pageFor(k);
        if (oi == order.size())
            return nullptr;
        const std::uint32_t id = self->acquire(oi);
        Slab &s = self->slabs[self->metas[id].slab];
        const std::size_t pos = lowerBound(s, k);
        const Mapped *out =
            (pos < s.keys.size() && s.keys[pos] == k)
                ? &s.vals[pos]
                : nullptr;
        self->release(id);
        return out;
    }

    /** Erase @p k moving its value into @p out in a single locate. */
    template <typename M = Mapped>
    bool
    take(const Key &k, M &out)
        requires(kHasMapped && std::is_same_v<M, Mapped>)
    {
        const std::size_t oi = pageFor(k);
        if (oi == order.size())
            return false;
        const std::uint32_t id = acquire(oi);
        Slab &s = slabs[metas[id].slab];
        const std::size_t pos = lowerBound(s, k);
        if (pos == s.keys.size() || !(s.keys[pos] == k)) {
            release(id);
            return false;
        }
        out = std::move(s.vals[pos]);
        if (!eraseAt(oi, id, pos))
            release(id);
        return true;
    }

    /** Largest key strictly less than @p k. */
    bool
    predecessor(const Key &k, Key &out) const
    {
        const Neighbors nb = neighbors(k);
        if (nb.hasPred)
            out = nb.pred;
        return nb.hasPred;
    }

    /** Smallest key strictly greater than @p k. */
    bool
    successor(const Key &k, Key &out) const
    {
        const Neighbors nb = neighbors(k);
        if (nb.hasSucc)
            out = nb.succ;
        return nb.hasSucc;
    }

    /** Predecessor, successor, and membership in one locate. */
    Neighbors
    neighbors(const Key &k) const
    {
        auto *self = mut();
        Neighbors nb;
        if (order.empty())
            return nb;
        const std::size_t oi = self->pageFor(k);
        if (oi == order.size()) {
            nb.hasPred = true;
            nb.pred = maxes.back();
            return nb;
        }
        const std::uint32_t id = self->acquire(oi);
        self->fillNeighbors(oi, id, k, nb);
        self->release(id);
        return nb;
    }

    /**
     * Visit every key with lo < key < hi in ascending order. Pages
     * whose minKey falls beyond hi are skipped without faulting. The
     * visitor must not mutate pool-sharing containers.
     */
    template <typename Fn>
    void
    forEachInRange(const Key &lo, const Key &hi, Fn &&fn) const
    {
        auto *self = mut();
        std::size_t oi = self->firstPageAbove(lo);
        for (bool leading = true; oi < order.size(); ++oi,
                                  leading = false) {
            // Page ranges are monotone: a minKey at or beyond hi
            // ends the scan without faulting the page in.
            if (!(self->metas[order[oi]].minKey < hi))
                return;
            const std::uint32_t id = self->acquire(oi);
            const Slab &s = self->slabs[self->metas[id].slab];
            std::size_t pos = leading ? upperBound(s, lo) : s.start;
            for (; pos < s.keys.size(); ++pos) {
                if (!(s.keys[pos] < hi)) {
                    self->release(id);
                    return;
                }
                if constexpr (kHasMapped)
                    fn(s.keys[pos], s.vals[pos]);
                else
                    fn(s.keys[pos]);
            }
            self->release(id);
        }
    }

    /** Visit every element in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        auto *self = mut();
        for (std::size_t oi = 0; oi < order.size(); ++oi) {
            const std::uint32_t id = self->acquire(oi);
            const Slab &s = self->slabs[self->metas[id].slab];
            for (std::size_t pos = s.start; pos < s.keys.size();
                 ++pos) {
                if constexpr (kHasMapped)
                    fn(s.keys[pos], s.vals[pos]);
                else
                    fn(s.keys[pos]);
            }
            self->release(id);
        }
    }

    /** Pages currently held in RAM (testing/telemetry). */
    std::size_t
    residentPages() const
    {
        std::size_t n = 0;
        for (std::uint32_t id : order)
            n += metas[id].slab != kNone32;
        return n;
    }

    std::size_t pages() const { return order.size(); }
    std::uint64_t faults() const { return faulted; }

    /**
     * Test hook: verify page ordering, metadata coherence, and the
     * element count; faults every page in. Panics on drift.
     */
    void
    checkInvariants() const
    {
        auto *self = mut();
        PACACHE_ASSERT(maxes.size() == order.size(),
                       "SpillableOrderedSet maxes drift");
        std::size_t seen = 0;
        for (std::size_t oi = 0; oi < order.size(); ++oi) {
            const std::uint32_t id = self->acquire(oi);
            const Meta &m = self->metas[id];
            const Slab &s = self->slabs[m.slab];
            PACACHE_ASSERT(s.start < s.keys.size(),
                           "empty spillable page");
            PACACHE_ASSERT(s.keys.size() - s.start <= kPageCap,
                           "oversized spillable page");
            PACACHE_ASSERT(m.minKey == s.keys[s.start] &&
                               m.maxKey == s.keys.back(),
                           "spillable page min/max drift");
            PACACHE_ASSERT(maxes[oi] == m.maxKey,
                           "spillable maxes drift");
            if constexpr (kHasMapped)
                PACACHE_ASSERT(s.vals.size() == s.keys.size(),
                               "spillable parallel-array drift");
            for (std::size_t i = s.start + 1; i < s.keys.size();
                 ++i)
                PACACHE_ASSERT(s.keys[i - 1] < s.keys[i],
                               "spillable page not sorted");
            if (oi > 0)
                PACACHE_ASSERT(maxes[oi - 1] < m.minKey,
                               "spillable pages out of order");
            seen += s.keys.size() - s.start;
            self->release(id);
        }
        PACACHE_ASSERT(seen == count,
                       "SpillableOrderedSet count drift");
    }

    /** SpillPool callback: serialize @p page and drop its slab. */
    void
    spillPage(std::uint32_t page) override
    {
        Meta &m = metas[page];
        PACACHE_ASSERT(m.slab != kNone32,
                       "spill of a non-resident page");
        if (m.dirty || m.slot == SpillPool::kNoSlot) {
            if (m.slot == SpillPool::kNoSlot)
                m.slot = pool->allocSlot(slotBytes());
            serialize(slabs[m.slab]);
            pool->writeSlot(m.slot, scratch.data(), slotBytes());
            m.dirty = false;
        }
        Slab &s = slabs[m.slab];
        s.keys.clear();
        if constexpr (kHasMapped)
            s.vals.clear();
        s.start = 0;
        freeSlabs.push_back(m.slab);
        m.slab = kNone32;
        m.token = SpillPool::kNoToken;
    }

  private:
    /** Page split threshold in live keys. */
    static constexpr std::size_t kPageCap = 256;
    static constexpr std::uint32_t kNone32 = ~std::uint32_t{0};
    static constexpr std::size_t kValBytes =
        kHasMapped ? sizeof(Value) : 0;

    struct Meta
    {
        Key minKey{};
        Key maxKey{};
        std::uint32_t slab = kNone32;
        std::uint32_t token = SpillPool::kNoToken;
        std::uint64_t slot = SpillPool::kNoSlot;
        bool dirty = false;
    };

    struct Slab
    {
        std::vector<Key> keys; //!< sorted, unique in [start, size())
        std::vector<Value> vals;
        std::size_t start = 0; //!< dead-prefix length
    };

    /** Resident cost charged to the pool budget per page. */
    static constexpr std::size_t
    pageBytes()
    {
        return kPageCap * (sizeof(Key) + kValBytes) + sizeof(Slab) +
               sizeof(Meta);
    }

    /** Fixed spill-slot size: count header + full-capacity arrays. */
    static constexpr std::size_t
    slotBytes()
    {
        return sizeof(std::uint64_t) +
               kPageCap * (sizeof(Key) + kValBytes);
    }

    SpillableOrderedSet *
    mut() const
    {
        // Query methods are logically const but physically fault
        // pages in and out; one cast beats `mutable` on every member.
        return const_cast<SpillableOrderedSet *>(this);
    }

    /**
     * Branchless binary search: each step halves the range with a
     * conditional move instead of a 50/50-mispredicted compare.
     * @return the first position in [first, first + n) whose key
     * fails @p before(key).
     */
    template <typename Before>
    static const Key *
    search(const Key *first, std::size_t n, Before before)
    {
        while (n > 1) {
            const std::size_t half = n / 2;
            first += before(first[half - 1]) ? half : 0;
            n -= half;
        }
        return first + (n == 1 && before(*first) ? 1 : 0);
    }

    static std::size_t
    lowerBound(const Slab &s, const Key &k)
    {
        const Key *base = s.keys.data();
        return static_cast<std::size_t>(
            search(base + s.start, s.keys.size() - s.start,
                   [&](const Key &x) { return x < k; }) -
            base);
    }

    static std::size_t
    upperBound(const Slab &s, const Key &k)
    {
        const Key *base = s.keys.data();
        return static_cast<std::size_t>(
            search(base + s.start, s.keys.size() - s.start,
                   [&](const Key &x) { return !(k < x); }) -
            base);
    }

    /** Index in order[] of the first page with maxKey >= k. */
    std::size_t
    pageFor(const Key &k) const
    {
        return static_cast<std::size_t>(
            search(maxes.data(), maxes.size(),
                   [&](const Key &x) { return x < k; }) -
            maxes.data());
    }

    /** Index in order[] of the first page with maxKey > k. */
    std::size_t
    firstPageAbove(const Key &k) const
    {
        return static_cast<std::size_t>(
            search(maxes.data(), maxes.size(),
                   [&](const Key &x) { return !(k < x); }) -
            maxes.data());
    }

    std::uint32_t
    allocSlab()
    {
        if (!freeSlabs.empty()) {
            const std::uint32_t sb = freeSlabs.back();
            freeSlabs.pop_back();
            return sb;
        }
        const std::uint32_t sb =
            static_cast<std::uint32_t>(slabs.size());
        slabs.emplace_back();
        return sb;
    }

    std::uint32_t
    allocMeta()
    {
        if (!freeMetas.empty()) {
            const std::uint32_t id = freeMetas.back();
            freeMetas.pop_back();
            metas[id] = Meta{};
            return id;
        }
        const std::uint32_t id =
            static_cast<std::uint32_t>(metas.size());
        metas.emplace_back();
        return id;
    }

    /**
     * Make page order[oi] resident and pinned; @return its id. Every
     * acquire must be paired with release() (unless the page is
     * dropped by eraseAt). May spill other pages to make room.
     */
    std::uint32_t
    acquire(std::size_t oi)
    {
        PACACHE_ASSERT(pool, "SpillableOrderedSet used unattached");
        const std::uint32_t id = order[oi];
        Meta &m = metas[id];
        if (m.slab != kNone32) {
            pool->touch(m.token);
            pool->pin(m.token);
            return id;
        }
        PACACHE_ASSERT(m.slot != SpillPool::kNoSlot,
                       "non-resident page without a spill slot");
        const std::uint32_t sb = allocSlab();
        m.slab = sb;
        deserialize(m.slot, slabs[sb]);
        m.dirty = false;
        ++faulted;
        // Registered pinned so the enforcement sweep inside add()
        // cannot victimize the page we are about to hand out.
        m.token = pool->add(this, id, pageBytes(), true);
        return id;
    }

    void
    release(std::uint32_t id)
    {
        pool->unpin(metas[id].token);
    }

    /** Refresh minKey/maxKey/maxes after a page mutation. */
    void
    syncMeta(std::size_t oi, std::uint32_t id)
    {
        Meta &m = metas[id];
        const Slab &s = slabs[m.slab];
        m.minKey = s.keys[s.start];
        m.maxKey = s.keys.back();
        maxes[oi] = m.maxKey;
        m.dirty = true;
    }

    bool
    insertImpl(const Key &k, Value v)
    {
        if (order.empty()) {
            PACACHE_ASSERT(pool,
                           "SpillableOrderedSet used unattached");
            const std::uint32_t id = allocMeta();
            const std::uint32_t sb = allocSlab();
            metas[id].slab = sb;
            slabs[sb].keys.push_back(k);
            if constexpr (kHasMapped)
                slabs[sb].vals.push_back(std::move(v));
            order.push_back(id);
            maxes.push_back(k);
            count = 1;
            syncMeta(0, id);
            metas[id].token = pool->add(this, id, pageBytes(), false);
            return true;
        }
        // Ascending-insert fast path (bulk cold seeding in sorted
        // order): append to the last page, no locate, no shifting.
        if (maxes.back() < k) {
            appendToLast(k, std::move(v));
            return true;
        }
        const std::size_t oi = pageFor(k);
        const std::uint32_t id = acquire(oi);
        Slab &s = slabs[metas[id].slab];
        const std::size_t pos = lowerBound(s, k);
        if (pos < s.keys.size() && s.keys[pos] == k) {
            release(id);
            return false;
        }
        insertAt(oi, id, pos, k, std::move(v));
        release(id);
        return true;
    }

    void
    appendToLast(const Key &k, Value v)
    {
        const std::size_t oi = order.size() - 1;
        const std::uint32_t id = acquire(oi);
        Slab &s = slabs[metas[id].slab];
        s.keys.push_back(k);
        if constexpr (kHasMapped)
            s.vals.push_back(std::move(v));
        ++count;
        syncMeta(oi, id);
        if (s.keys.size() - s.start > kPageCap)
            splitPage(oi, id);
        release(id);
    }

    /** One-locate neighbor fill; cross-page answers come from the
     *  resident page metadata (no adjacent faults). */
    std::size_t
    fillNeighbors(std::size_t oi, std::uint32_t id, const Key &k,
                  Neighbors &nb)
    {
        const Slab &s = slabs[metas[id].slab];
        const std::size_t pos = lowerBound(s, k);
        nb.present = s.keys[pos] == k;
        if (pos > s.start) {
            nb.hasPred = true;
            nb.pred = s.keys[pos - 1];
        } else if (oi > 0) {
            nb.hasPred = true;
            nb.pred = metas[order[oi - 1]].maxKey;
        }
        const std::size_t succ_pos = nb.present ? pos + 1 : pos;
        if (succ_pos < s.keys.size()) {
            nb.hasSucc = true;
            nb.succ = s.keys[succ_pos];
        } else if (oi + 1 < order.size()) {
            nb.hasSucc = true;
            nb.succ = metas[order[oi + 1]].minKey;
        }
        return pos;
    }

    /** Insert at an already-located position; page must be pinned. */
    void
    insertAt(std::size_t oi, std::uint32_t id, std::size_t pos,
             const Key &k, Value v)
    {
        Slab &s = slabs[metas[id].slab];
        // Reuse a dead-prefix slot when the left side is shorter.
        if (s.start > 0 && pos - s.start < s.keys.size() - pos) {
            std::move(s.keys.begin() + s.start, s.keys.begin() + pos,
                      s.keys.begin() + s.start - 1);
            s.keys[pos - 1] = k;
            if constexpr (kHasMapped) {
                std::move(s.vals.begin() + s.start,
                          s.vals.begin() + pos,
                          s.vals.begin() + s.start - 1);
                s.vals[pos - 1] = std::move(v);
            }
            --s.start;
        } else {
            s.keys.insert(s.keys.begin() + pos, k);
            if constexpr (kHasMapped)
                s.vals.insert(s.vals.begin() + pos, std::move(v));
        }
        ++count;
        syncMeta(oi, id);
        if (s.keys.size() - s.start > kPageCap)
            splitPage(oi, id);
    }

    /**
     * Erase at an already-located position; page must be pinned.
     * @return true if the page was dropped entirely (its pin is gone
     * with it — the caller must then skip release()).
     */
    bool
    eraseAt(std::size_t oi, std::uint32_t id, std::size_t pos)
    {
        Meta &m = metas[id];
        Slab &s = slabs[m.slab];
        --count;
        if (s.keys.size() - s.start == 1) {
            pool->remove(m.token);
            // Release the arrays: a drained page has no refault to
            // reuse them for (spillPage keeps a spilled page's).
            s = Slab{};
            freeSlabs.push_back(m.slab);
            if (m.slot != SpillPool::kNoSlot)
                pool->freeSlot(m.slot, slotBytes());
            freeMetas.push_back(id);
            order.erase(order.begin() + oi);
            maxes.erase(maxes.begin() + oi);
            return true;
        }
        // Shift whichever side is shorter; erasing the page minimum
        // (OPG's deterministic-miss pattern) just grows the prefix.
        if (pos - s.start < s.keys.size() - pos - 1) {
            std::move_backward(s.keys.begin() + s.start,
                               s.keys.begin() + pos,
                               s.keys.begin() + pos + 1);
            if constexpr (kHasMapped)
                std::move_backward(s.vals.begin() + s.start,
                                   s.vals.begin() + pos,
                                   s.vals.begin() + pos + 1);
            ++s.start;
            if (s.start >= kPageCap)
                compact(s);
        } else {
            s.keys.erase(s.keys.begin() + pos);
            if constexpr (kHasMapped)
                s.vals.erase(s.vals.begin() + pos);
        }
        syncMeta(oi, id);
        return false;
    }

    static void
    compact(Slab &s)
    {
        s.keys.erase(s.keys.begin(), s.keys.begin() + s.start);
        if constexpr (kHasMapped)
            s.vals.erase(s.vals.begin(), s.vals.begin() + s.start);
        s.start = 0;
    }

    /** Split an over-full pinned page; the right half may spill. */
    void
    splitPage(std::size_t oi, std::uint32_t id)
    {
        compact(slabs[metas[id].slab]);
        const std::uint32_t rightId = allocMeta();
        const std::uint32_t rightSb = allocSlab();
        // allocMeta/allocSlab may reallocate; re-fetch references.
        Meta &m = metas[id];
        Slab &s = slabs[m.slab];
        Slab &r = slabs[rightSb];
        const std::size_t half = s.keys.size() / 2;
        r.keys.assign(s.keys.begin() + half, s.keys.end());
        s.keys.resize(half);
        if constexpr (kHasMapped) {
            r.vals.assign(
                std::make_move_iterator(s.vals.begin() + half),
                std::make_move_iterator(s.vals.end()));
            s.vals.resize(half);
        }
        Meta &rm = metas[rightId];
        rm.slab = rightSb;
        rm.minKey = r.keys.front();
        rm.maxKey = r.keys.back();
        rm.dirty = true;
        m.maxKey = s.keys.back();
        m.minKey = s.keys[s.start];
        m.dirty = true;
        maxes[oi] = m.maxKey;
        order.insert(order.begin() + oi + 1, rightId);
        maxes.insert(maxes.begin() + oi + 1, rm.maxKey);
        // Fully formed before registration: add() may spill it (or
        // any unpinned sibling) straight away under a tight budget.
        metas[rightId].token =
            pool->add(this, rightId, pageBytes(), false);
    }

    void
    serialize(const Slab &s)
    {
        scratch.assign(slotBytes(), 0);
        const std::uint64_t live = s.keys.size() - s.start;
        std::memcpy(scratch.data(), &live, sizeof(live));
        std::memcpy(scratch.data() + sizeof(std::uint64_t),
                    s.keys.data() + s.start, live * sizeof(Key));
        if constexpr (kHasMapped)
            std::memcpy(scratch.data() + sizeof(std::uint64_t) +
                            kPageCap * sizeof(Key),
                        s.vals.data() + s.start,
                        live * sizeof(Value));
    }

    void
    deserialize(std::uint64_t slot, Slab &s)
    {
        scratch.resize(slotBytes());
        pool->readSlot(slot, scratch.data(), slotBytes());
        std::uint64_t live = 0;
        std::memcpy(&live, scratch.data(), sizeof(live));
        PACACHE_ASSERT(live >= 1 && live <= kPageCap,
                       "corrupt spill slot header");
        s.start = 0;
        s.keys.resize(static_cast<std::size_t>(live));
        std::memcpy(s.keys.data(),
                    scratch.data() + sizeof(std::uint64_t),
                    live * sizeof(Key));
        if constexpr (kHasMapped) {
            s.vals.resize(static_cast<std::size_t>(live));
            std::memcpy(s.vals.data(),
                        scratch.data() + sizeof(std::uint64_t) +
                            kPageCap * sizeof(Key),
                        live * sizeof(Value));
        }
    }

    SpillPool *pool = nullptr;
    std::vector<Meta> metas;
    std::vector<std::uint32_t> freeMetas;
    std::vector<std::uint32_t> order; //!< page ids, ascending ranges
    std::vector<Key> maxes; //!< maxes[i] == metas[order[i]].maxKey
    std::vector<Slab> slabs;
    std::vector<std::uint32_t> freeSlabs;
    std::size_t count = 0;
    std::uint64_t faulted = 0;
    std::vector<char> scratch;
};

} // namespace pacache

#endif // PACACHE_UTIL_SPILL_SET_HH
