/**
 * @file
 * Replacement policy interface for the storage cache.
 *
 * The cache tells the policy about every block access (with a
 * monotonically increasing access index that off-line policies use
 * to index their future knowledge) and asks it to surrender a victim
 * when the cache is full. Policies must track exactly the set of
 * blocks the cache holds: every block reported via a miss access is
 * resident until returned by evict() or passed to onRemove().
 */

#ifndef PACACHE_CACHE_POLICY_HH
#define PACACHE_CACHE_POLICY_HH

#include <cstddef>
#include <vector>

#include "cache/future.hh"
#include "sim/types.hh"
#include "util/logging.hh"

namespace pacache
{

class WindowedFuture;

/** Abstract cache replacement policy. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Human-readable policy name ("LRU", "Belady", ...). */
    virtual const char *name() const = 0;

    /**
     * Off-line hook: called once before the run with the full
     * block-granular access stream. On-line policies ignore it.
     */
    virtual void prepare(const std::vector<BlockAccess> &) {}

    /**
     * Off-line hook taking future knowledge built elsewhere (over a
     * .pct file, out of core) in place of prepare()'s in-memory
     * build. Only the oracles accept it.
     */
    virtual void
    prepareWindowed(WindowedFuture &&)
    {
        PACACHE_PANIC(name(), " takes no future knowledge");
    }

    /**
     * Notification of an access to @p block at time @p now.
     * @param idx  global index of this access in the expanded stream
     * @param hit  true if the block was resident before the access
     */
    virtual void onAccess(const BlockId &block, Time now, std::size_t idx,
                          bool hit) = 0;

    /**
     * Called on every miss, before a potential evict() for the same
     * access. Lets policies that keep ghost history (ARC, MQ) adapt
     * to the incoming block before choosing a victim.
     */
    virtual void beforeMiss(const BlockId &, Time, std::size_t) {}

    /**
     * Remove a specific resident block from the policy's books
     * (external invalidation or migration between wrapped policies).
     */
    virtual void onRemove(const BlockId &block) = 0;

    /**
     * Choose a victim, remove it from the policy's books, and return
     * it. Only called when at least one block is resident.
     */
    virtual BlockId evict(Time now, std::size_t idx) = 0;

    /**
     * Off-line policies index their future knowledge by access
     * position, so speculative insertions (prefetch) would corrupt
     * their books; they override this to false.
     */
    virtual bool supportsPrefetch() const { return true; }

    /**
     * Off-line policies consume future knowledge built from the whole
     * access stream in prepare(), so streaming drivers must
     * materialize the trace for them; they override this to true.
     */
    virtual bool isOffline() const { return false; }

    /**
     * True when this policy can replay a stream it has never seen
     * materialized. On-line policies always can; off-line ones only
     * once their future knowledge is built (the oracles override
     * this to hold after prepare() or prepareWindowed()).
     */
    virtual bool streamReady() const { return !isOffline(); }
};

} // namespace pacache

#endif // PACACHE_CACHE_POLICY_HH
