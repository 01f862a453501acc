/**
 * @file
 * OPG — the Off-line Power-aware Greedy replacement algorithm
 * (paper Section 3.2).
 *
 * OPG maintains, per disk, the set S of *deterministic misses*:
 * future accesses that are bound to miss no matter what the
 * replacement algorithm does from now on (initially every cold miss;
 * whenever a block is evicted, its next reference joins S; whenever
 * a deterministic miss is serviced it leaves S).
 *
 * For a resident block x whose next access is l seconds after its
 * *leader* (closest deterministic miss to the same disk before it)
 * and f seconds before its *follower* (closest after it), evicting x
 * turns one idle period of length l+f into two periods l and f, so
 * the energy penalty is
 *
 *      penalty(x) = E(l) + E(f) - E(l+f) >= 0,
 *
 * where E is the idle-period energy function of the underlying DPM:
 * the lower envelope E*(t) for Oracle DPM or the threshold-walk
 * energy for Practical DPM. OPG evicts the block with the smallest
 * penalty, breaking ties by the furthest next access.
 *
 * Penalties below the threshold theta are rounded up to theta, which
 * trades energy for miss ratio: theta = 0 is pure OPG and
 * theta -> infinity degrades exactly to Belady's MIN (all penalties
 * equal; ties broken by forward distance).
 *
 * Implementation (the oracle fast path; ReferenceOpgPolicy in
 * core/opg_ref.hh is the retained node-based original):
 *
 *  - every future index OPG tracks carries its arrival time with it
 *    (a TimedIndex), so pricing never looks a time up: the time is
 *    read once, when the index is learned — from the next-use query
 *    or a cold seed — and travels inside the oracle state;
 *  - per disk, S is a paged sorted-vector SpillableOrderedSet of
 *    TimedIndexes whose neighbors() query answers leader/follower
 *    (with their times) and membership in one locate;
 *  - resident blocks with a finite next access live in a per-disk
 *    SpillableOrderedSet map from next-access index to {victim-heap
 *    handle, next-access time}, so gap-scoped repricing is a
 *    contiguous range scan with no hash lookups (blocks that are
 *    never re-referenced have nothing to reprice and stay out of the
 *    index);
 *  - the victim order is an addressable 4-ary IndexedHeap keyed by
 *    (penalty, furthest next access, block); repricing updates keys
 *    in place through stable handles;
 *  - gap pricing inlines the power model's precomputed fast paths
 *    (flat line-table min-scan for Oracle, closed-form segment table
 *    for Practical), bit-identical to the legacy per-call scans.
 *
 * Future knowledge is one WindowedFuture (cache/future_window.hh)
 * whatever the trace's size: prepare() builds it in memory over the
 * expanded access stream, prepareWindowed() adopts one built out of
 * core over a .pct file. Each next use arrives with its arrival time
 * and in consumption order, so the replay loop is the same for both.
 *
 * All ordered oracle state — the per-disk deterministic-miss sets
 * and next-use indexes — sits in SpillableOrderedSets attached to one
 * SpillPool sized by the constructor's mem_budget (0 = unbounded).
 * Under a budget, pages beyond it overflow to an unlinked spill file
 * and fault back on touch; an unbounded pool never creates the file.
 * Spilling moves bytes, never values, so the replay is bit-identical
 * at every budget — evictions, counters and energy all match.
 */

#ifndef PACACHE_CORE_OPG_HH
#define PACACHE_CORE_OPG_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/future_window.hh"
#include "cache/policy.hh"
#include "disk/power_model.hh"
#include "util/flat_map.hh"
#include "util/indexed_heap.hh"
#include "util/spill_pool.hh"
#include "util/spill_set.hh"

namespace pacache
{

/**
 * A future access index with its arrival time riding along. Ordered
 * and compared by index alone, so a lookup probe may carry any time.
 */
struct TimedIndex
{
    std::size_t idx;
    Time time;

    bool operator<(const TimedIndex &o) const { return idx < o.idx; }
    bool operator==(const TimedIndex &o) const { return idx == o.idx; }
};

/** Which idle-period energy function prices the penalties. */
enum class DpmKind
{
    Oracle,    //!< lower envelope E*(t)
    Practical, //!< threshold-based DPM energy
};

/** The off-line power-aware greedy policy. */
class OpgPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param pm          power model used to price idle periods
     * @param kind        which DPM the disks run (prices E)
     * @param theta       penalty floor in Joules (0 = pure OPG)
     * @param mem_budget  SpillPool budget in bytes for the oracle's
     *                    ordered state (0 = unbounded)
     */
    OpgPolicy(const PowerModel &pm, DpmKind kind, Energy theta = 0,
              std::size_t mem_budget = 0);

    const char *name() const override { return "OPG"; }

    /**
     * Build the future in memory over @p accesses; the vector must
     * outlive the run only for full validateInternalState() checks.
     */
    void prepare(const std::vector<BlockAccess> &accesses) override;

    /**
     * Adopt an already-built future whose cold seeds initialize the
     * deterministic-miss sets.
     */
    void prepareWindowed(WindowedFuture &&fut) override;

    void beforeMiss(const BlockId &block, Time now,
                    std::size_t idx) override;
    void onAccess(const BlockId &block, Time now, std::size_t idx,
                  bool hit) override;
    void onRemove(const BlockId &block) override;
    BlockId evict(Time now, std::size_t idx) override;
    bool supportsPrefetch() const override { return false; }
    bool isOffline() const override { return true; }
    bool streamReady() const override { return future.built(); }

    /** Energy penalty currently assigned to a resident block. */
    Energy penaltyOf(const BlockId &block) const;

    /** Number of deterministic misses currently tracked for a disk. */
    std::size_t deterministicMissCount(DiskId disk) const;

    /**
     * Full validation recomputes every resident penalty from scratch
     * (O(n * pricing) — oracle-sized). Debug/test builds default to
     * it; release builds default to the cheap size-drift invariants
     * so sanitizer CI does not pay oracle costs per call.
     */
#ifdef NDEBUG
    static constexpr bool kFullValidationDefault = false;
#else
    static constexpr bool kFullValidationDefault = true;
#endif

    /**
     * Test hook: check internal bookkeeping; panics when out of sync.
     * With @p full, recompute every resident block's penalty and
     * cross-check every index entry against the incremental state.
     */
    void validateInternalState(bool full = kFullValidationDefault) const;

  private:
    /**
     * Victim-ordering key: min penalty, then furthest next access.
     * The block rides along as its packed id — same tie-break order
     * as (disk, block), and the 24-byte key cuts heap sift traffic.
     */
    struct EvictKey
    {
        Energy penalty;
        std::size_t nextIdx;
        std::uint64_t block; //!< BlockId::packed()

        bool
        operator<(const EvictKey &o) const
        {
            if (penalty != o.penalty)
                return penalty < o.penalty;
            if (nextIdx != o.nextIdx)
                return nextIdx > o.nextIdx; // furthest first
            return block < o.block;
        }
    };

    using EvictHeap = IndexedHeap<EvictKey>;
    using Handle = EvictHeap::Handle;

    /** residentByNext payload: the heap entry and the next's time. */
    struct Resident
    {
        Handle handle;
        Time time; //!< arrival time of the indexing next access
    };

    using DetSet = SpillableOrderedSet<TimedIndex>;
    using NextIndex = SpillableOrderedSet<std::size_t, Resident>;

    Energy
    idleEnergy(Time t) const
    {
        return dpmKind == DpmKind::Oracle ? pm->envelope(t)
                                          : pm->practicalEnergy(t);
    }
    /** Penalty of a resident whose next access is @p next. */
    Energy computePenalty(DiskId disk, TimedIndex next) const;

    void insertResident(const BlockId &block, TimedIndex next);
    /** Unindex a resident's next access; @return it with its time. */
    TimedIndex unindexNext(DiskId disk, std::size_t next_idx);
    /**
     * Re-price resident blocks with next access in (lo, hi), where lo
     * and hi (when present) are known to be the gap's deterministic
     * misses — their leader and follower.
     */
    void repriceGap(DiskId disk, TimedIndex lo, bool has_lo,
                    TimedIndex hi, bool has_hi);
    void detInsert(DiskId disk, TimedIndex next);
    void detErase(DiskId disk, std::size_t idx);

    const PowerModel *pm;
    DpmKind dpmKind;
    Energy theta;
    std::size_t memBudget; //!< SpillPool bytes (SIZE_MAX = unbounded)

    /** prepare()'s stream, read only by full validation. */
    const std::vector<BlockAccess> *accesses = nullptr;
    WindowedFuture future;
    Time bigTime = 0;  //!< stands in for "no leader/follower"
    Energy eBig = 0;   //!< cached idleEnergy(bigTime)

    /**
     * Declared before the spillable containers: members destruct in
     * reverse order, so the sets (whose destructors return pages and
     * slots to the pool) must go first.
     */
    std::unique_ptr<SpillPool> spillPool;
    std::vector<DetSet> detMiss; //!< per-disk S
    /** Per disk: finite next-access index -> handle and time. */
    std::vector<NextIndex> residentByNext;
    /** Packed 64-bit keys: 16-byte slots, one-word hash per probe. */
    FlatMap<std::uint64_t, Handle> handleOf;
    EvictHeap evictOrder;
};

/**
 * OpgPolicy's older name, kept only because the frozen benchmark
 * harness (perfbench/src/sharded_wtdu.cc) uses it.
 */
using SpilledWindowedOpgPolicy = OpgPolicy;

} // namespace pacache

#endif // PACACHE_CORE_OPG_HH
