/**
 * @file
 * Belady's MIN — the off-line replacement algorithm that evicts the
 * block whose next reference is furthest in the future. It minimizes
 * the miss count (the paper's baseline off-line bound) but, as the
 * paper's Section 3 shows, is *not* energy-optimal.
 *
 * Implementation (the oracle fast path; ReferenceBeladyPolicy in
 * cache/belady_ref.hh is the retained set-based original): resident
 * blocks live in an addressable max-heap keyed by (next-use index,
 * block) — kNever sorts last, exactly matching the reference's
 * std::prev(set.end()) victim — with a flat hash map from block to
 * its stable heap handle.
 *
 * Like OPG it reads one WindowedFuture, built in memory by prepare()
 * or out of core and handed over through prepareWindowed(); MIN
 * consumes only the next-use indices, never their times.
 */

#ifndef PACACHE_CACHE_BELADY_HH
#define PACACHE_CACHE_BELADY_HH

#include <utility>

#include "cache/future_window.hh"
#include "cache/policy.hh"
#include "util/flat_map.hh"
#include "util/indexed_heap.hh"

namespace pacache
{

/** Belady's off-line MIN replacement policy. */
class BeladyPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "Belady"; }

    void prepare(const std::vector<BlockAccess> &accesses) override;
    void prepareWindowed(WindowedFuture &&fut) override;

    void onAccess(const BlockId &block, Time now, std::size_t idx,
                  bool hit) override;
    void onRemove(const BlockId &block) override;
    BlockId evict(Time now, std::size_t idx) override;
    bool supportsPrefetch() const override { return false; }
    bool isOffline() const override { return true; }
    bool streamReady() const override { return future.built(); }

  private:
    using UseKey = std::pair<std::size_t, BlockId>;

    /** Max-heap order: top() is the largest (furthest) key. */
    struct FurthestFirst
    {
        bool
        operator()(const UseKey &a, const UseKey &b) const
        {
            return b < a;
        }
    };

    using UseHeap = IndexedHeap<UseKey, FurthestFirst>;
    using Handle = UseHeap::Handle;

    WindowedFuture future;

    UseHeap byNextUse;
    /** Packed 64-bit keys: 16-byte slots, one-word hash per probe. */
    FlatMap<std::uint64_t, Handle> handleOf;
};

} // namespace pacache

#endif // PACACHE_CACHE_BELADY_HH
