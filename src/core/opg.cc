#include "core/opg.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace pacache
{

template <typename F, typename Store>
BasicOpgPolicy<F, Store>::BasicOpgPolicy(const PowerModel &pm_,
                                         DpmKind kind, Energy theta_,
                                         std::size_t mem_budget)
    : pm(&pm_), dpmKind(kind), theta(theta_), memBudget(mem_budget)
{
    PACACHE_ASSERT(theta >= 0, "theta must be non-negative");
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::resetOracle(std::size_t num_disks, Time last)
{
    // "No leader/follower" sentinel: far enough out that every energy
    // function has reached its linear (deepest-mode) tail.
    const auto &thr = pm->thresholds();
    const Time deepest = thr.empty() ? 0.0 : thr.back();
    bigTime = last + 4 * deepest + 1000.0;
    // A missing leader/follower always prices as E(bigTime); cache
    // the scan once instead of re-running it per gap endpoint.
    eBig = idleEnergy(bigTime);

    if constexpr (Store::kSpilled) {
        // Spillable sets hold pool-registered pages: destroy them
        // against the old pool before replacing it, then attach the
        // fresh ones (moves only happen while empty and unattached,
        // so the resize from empty is safe).
        detMiss.clear();
        residentByNext.clear();
        spillPool = std::make_unique<SpillPool>(memBudget);
        detMiss.resize(num_disks);
        residentByNext.resize(num_disks);
        for (auto &s : detMiss)
            s.attach(*spillPool);
        for (auto &s : residentByNext)
            s.attach(*spillPool);
    } else {
        detMiss.assign(num_disks, {});
        residentByNext.assign(num_disks, {});
    }
    handleOf.clear();
    evictOrder.clear();
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::prepare(const std::vector<BlockAccess> &accs)
{
    if constexpr (F::kStreaming) {
        (void)accs;
        PACACHE_FATAL("windowed OPG cannot materialize an access "
                      "stream; feed it via prepareWindowed()");
    } else {
        accesses = &accs;
        future = F::build(accs);

        // One pass over the 40-byte records: disk count, trace end,
        // and the cold-miss indices (each block's first reference)
        // that seed S. The per-disk inserts are deferred until the
        // disk count is known; cold[] holds one entry per unique
        // block.
        std::size_t num_disks = 1;
        Time last = 0;
        std::vector<std::pair<DiskId, std::size_t>> cold;
        for (std::size_t i = 0; i < accs.size(); ++i) {
            const auto &a = accs[i];
            num_disks =
                std::max<std::size_t>(num_disks, a.block.disk + 1);
            last = std::max(last, a.time);
            if (future.isFirstReference(i))
                cold.emplace_back(a.block.disk, i);
        }
        resetOracle(num_disks, last);
        // S starts as the set of all cold misses (first references).
        for (const auto &[disk, i] : cold)
            detMiss[disk].insert(TimedIndex{i, accs[i].time});
        ready = true;
    }
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::prepareWindowed(F &&fut)
{
    if constexpr (!F::kStreaming) {
        (void)fut;
        PACACHE_FATAL("prepareWindowed on the materialized oracle; "
                      "use prepare()");
    } else {
        PACACHE_ASSERT(fut.built(),
                       "prepareWindowed requires a built future");
        future = std::move(fut);
        accesses = nullptr;
        resetOracle(future.numDisks(), future.endTime());
        // Taken, not copied: the seeds are dead weight once in S.
        for (const auto &seed : future.takeColdSeeds())
            detMiss[seed.disk].insert(TimedIndex{seed.idx, seed.time});
        ready = true;
    }
}

template <typename F, typename Store>
TimedIndex
BasicOpgPolicy<F, Store>::nextUse(std::size_t idx)
{
    TimedIndex next{0, 0};
    if constexpr (F::kStreaming) {
        next.idx = future.nextUse(idx, next.time);
    } else {
        next.idx = future.nextUse(idx);
        if (next.idx != F::kNever)
            next.time = (*accesses)[next.idx].time;
    }
    return next;
}

template <typename F, typename Store>
Energy
BasicOpgPolicy<F, Store>::computePenalty(DiskId disk,
                                         TimedIndex next) const
{
    if (next.idx == F::kNever)
        return 0.0; // never re-referenced: eviction costs nothing

    const auto nb = detMiss[disk].neighbors(next);
    PACACHE_ASSERT(!nb.present,
                   "resident block's next access is a deterministic miss");

    const Time t_x = next.time;
    const Time l = nb.hasPred ? t_x - nb.pred.time : bigTime;
    const Time f = nb.hasSucc ? nb.succ.time - t_x : bigTime;

    // eBig is the exact value idleEnergy(bigTime) returns, so the
    // substitution is bit-identical to pricing the missing end.
    const Energy e_l = nb.hasPred ? idleEnergy(l) : eBig;
    const Energy e_f = nb.hasSucc ? idleEnergy(f) : eBig;
    const Energy penalty = e_l + e_f - idleEnergy(l + f);
    return std::max<Energy>(penalty, 0.0);
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::insertResident(const BlockId &block,
                                         TimedIndex next)
{
    const Energy penalty =
        std::max(computePenalty(block.disk, next), theta);
    const Handle h =
        evictOrder.push(EvictKey{penalty, next.idx, block.packed()});
    const bool inserted = handleOf.emplace(block.packed(), h).second;
    PACACHE_ASSERT(inserted, "OPG double insert of resident block");
    if (next.idx != F::kNever) {
        const bool fresh = residentByNext[block.disk].insert(
            next.idx, Resident{h, next.time});
        PACACHE_ASSERT(fresh, "OPG next-use index collision");
    }
}

template <typename F, typename Store>
TimedIndex
BasicOpgPolicy<F, Store>::unindexNext(DiskId disk, std::size_t next_idx)
{
    TimedIndex next{next_idx, 0};
    if (next_idx != F::kNever) {
        Resident r{};
        const bool erased = residentByNext[disk].take(next_idx, r);
        PACACHE_ASSERT(erased, "OPG residentByNext out of sync");
        next.time = r.time;
    }
    return next;
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::repriceGap(DiskId disk, TimedIndex lo,
                                     bool has_lo, TimedIndex hi,
                                     bool has_hi)
{
    // Every resident with next access inside (lo, hi) shares the same
    // leader (lo) and follower (hi) — no per-block detMiss queries.
    const Time t_lo = has_lo ? lo.time : 0;
    const Time t_hi = has_hi ? hi.time : 0;
    const std::size_t lo_key = has_lo ? lo.idx : 0;
    const std::size_t hi_key = has_hi ? hi.idx : F::kNever;
    // A missing end always prices as the cached E(bigTime), exactly
    // what computePenalty substitutes. The whole-gap term is NOT
    // hoisted as E(t_hi - t_lo) even though l + f is mathematically
    // the gap width: FP addition is not associative, so
    // (t_x - t_lo) + (t_hi - t_x) can round to a different double
    // than t_hi - t_lo, and the penalty must stay bit-identical to
    // the per-block form computePenalty (and the reference policy)
    // evaluates.
    residentByNext[disk].forEachInRange(
        lo_key, hi_key, [&](std::size_t next_idx, const Resident &r) {
            const Time t_x = r.time;
            const Time l = has_lo ? t_x - t_lo : bigTime;
            const Time f = has_hi ? t_hi - t_x : bigTime;
            const Energy e_l = has_lo ? idleEnergy(l) : eBig;
            const Energy e_f = has_hi ? idleEnergy(f) : eBig;
            const Energy penalty = e_l + e_f - idleEnergy(l + f);
            const Energy fresh =
                std::max(std::max<Energy>(penalty, 0.0), theta);
            const EvictKey &key = evictOrder.key(r.handle);
            if (fresh == key.penalty)
                return;
            evictOrder.update(r.handle,
                              EvictKey{fresh, next_idx, key.block});
        });
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::detInsert(DiskId disk, TimedIndex next)
{
    typename Store::DetSet::Neighbors nb;
    const bool fresh = detMiss[disk].insertWithNeighbors(next, nb);
    PACACHE_ASSERT(fresh, "duplicate deterministic miss");
    // next split its gap in two: residents below it now follow it,
    // residents above now lead from it.
    repriceGap(disk, nb.pred, nb.hasPred, next, true);
    repriceGap(disk, next, true, nb.succ, nb.hasSucc);
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::detErase(DiskId disk, std::size_t idx)
{
    typename Store::DetSet::Neighbors nb;
    const bool was =
        detMiss[disk].eraseWithNeighbors(TimedIndex{idx, 0}, nb);
    PACACHE_ASSERT(was, "miss not in deterministic-miss set");
    // idx's two gaps merged into one spanning (pred, succ).
    repriceGap(disk, nb.pred, nb.hasPred, nb.succ, nb.hasSucc);
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::beforeMiss(const BlockId &block, Time,
                              std::size_t idx)
{
    // The access happening now is, by definition, a deterministic
    // miss; it leaves S.
    detErase(block.disk, idx);
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::onAccess(const BlockId &block, Time,
                            std::size_t idx, bool hit)
{
    PACACHE_ASSERT(ready, "OPG requires prepare() before use");
    const TimedIndex next = nextUse(idx);
    if (!hit) {
        insertResident(block, next);
        return;
    }
    // Hit: the block stays resident, only its next access (and hence
    // its penalty) moves — update the heap key in place and re-slot
    // the next-use index entry. The hit itself is the block's
    // recorded next access, so taking idx out of the next-use index
    // yields the heap handle with no block-keyed hash probe.
    Resident r{};
    const bool unindexed = residentByNext[block.disk].take(idx, r);
    PACACHE_ASSERT(unindexed, "OPG hit on unindexed block");
    PACACHE_ASSERT(evictOrder.key(r.handle).nextIdx == idx,
                   "stale next-use index on hit");
    const Energy penalty =
        std::max(computePenalty(block.disk, next), theta);
    evictOrder.update(r.handle,
                      EvictKey{penalty, next.idx, block.packed()});
    if (next.idx != F::kNever) {
        const bool fresh = residentByNext[block.disk].insert(
            next.idx, Resident{r.handle, next.time});
        PACACHE_ASSERT(fresh, "OPG next-use index collision");
    }
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::onRemove(const BlockId &block)
{
    // External removal behaves like an eviction: the block's next
    // reference becomes a deterministic miss.
    Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "OPG removal of unknown block");
    const Handle h = *hp;
    handleOf.erase(block.packed());
    const TimedIndex next =
        unindexNext(block.disk, evictOrder.key(h).nextIdx);
    evictOrder.erase(h);
    if (next.idx != F::kNever)
        detInsert(block.disk, next);
}

template <typename F, typename Store>
BlockId
BasicOpgPolicy<F, Store>::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!evictOrder.empty(), "OPG evict on empty cache");
    // The victim is the heap top: no handle lookup needed, and pop()
    // is cheaper than erase(handle) from an arbitrary slot.
    const Handle h = evictOrder.topHandle();
    const EvictKey key = evictOrder.key(h);
    const BlockId victim = BlockId::fromPacked(key.block);
    const bool known = handleOf.erase(key.block);
    PACACHE_ASSERT(known, "OPG evicting unknown block");
    const TimedIndex next = unindexNext(victim.disk, key.nextIdx);
    evictOrder.pop();
    if (next.idx != F::kNever)
        detInsert(victim.disk, next);
    return victim;
}

template <typename F, typename Store>
Energy
BasicOpgPolicy<F, Store>::penaltyOf(const BlockId &block) const
{
    const Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "penaltyOf unknown block");
    return evictOrder.key(*hp).penalty;
}

template <typename F, typename Store>
std::size_t
BasicOpgPolicy<F, Store>::deterministicMissCount(DiskId disk) const
{
    return disk < detMiss.size() ? detMiss[disk].size() : 0;
}

template <typename F, typename Store>
void
BasicOpgPolicy<F, Store>::validateInternalState(bool full) const
{
    // Cheap size-drift invariants, always on.
    PACACHE_ASSERT(evictOrder.size() == handleOf.size(),
                   "evict order / handle index size drift");
    std::size_t indexed = 0;
    for (const auto &byNext : residentByNext)
        indexed += byNext.size();
    PACACHE_ASSERT(indexed <= handleOf.size(),
                   "next-use index size drift");
    if (!full)
        return;

    // Full cross-check: recompute every penalty from scratch and
    // verify every index entry against the incremental bookkeeping.
    // The materialized oracle also checks every carried time against
    // the access records.
    const auto checkTime = [&](std::size_t idx, Time t) {
        PACACHE_ASSERT(!accesses || (*accesses)[idx].time == t,
                       "carried time of index ", idx, " is stale");
    };
    evictOrder.validate();
    for (const auto &s : detMiss) {
        s.checkInvariants();
        s.forEach([&](const TimedIndex &x) { checkTime(x.idx, x.time); });
    }
    std::size_t finite = 0;
    handleOf.forEach([&](std::uint64_t packed, Handle h) {
        const EvictKey &key = evictOrder.key(h);
        PACACHE_ASSERT(key.block == packed,
                       "victim-heap handle points at wrong block");
        const BlockId block = BlockId::fromPacked(packed);
        TimedIndex next{key.nextIdx, 0};
        if (key.nextIdx != F::kNever) {
            ++finite;
            // Copy out at once: a spilled find() pointer dies with
            // the next pool operation.
            const Resident *indexed =
                residentByNext[block.disk].find(key.nextIdx);
            PACACHE_ASSERT(indexed && indexed->handle == h,
                           "missing next-use index entry");
            next.time = indexed->time;
            checkTime(next.idx, next.time);
        }
        const Energy freshPenalty =
            std::max(computePenalty(block.disk, next), theta);
        PACACHE_ASSERT(freshPenalty == key.penalty,
                       "stale penalty for disk ", block.disk,
                       " block ", block.block, ": cached ",
                       key.penalty, " fresh ", freshPenalty);
    });
    PACACHE_ASSERT(indexed == finite,
                   "next-use index holds stale entries");
}

template class BasicOpgPolicy<FutureKnowledge>;
template class BasicOpgPolicy<WindowedFuture>;
template class BasicOpgPolicy<FutureKnowledge, SpilledOracleStore>;
template class BasicOpgPolicy<WindowedFuture, SpilledOracleStore>;

} // namespace pacache
