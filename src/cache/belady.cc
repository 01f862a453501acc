#include "cache/belady.hh"

#include "util/logging.hh"

namespace pacache
{

void
BeladyPolicy::prepare(const std::vector<BlockAccess> &accesses)
{
    prepareWindowed(WindowedFuture(accesses));
}

void
BeladyPolicy::prepareWindowed(WindowedFuture &&fut)
{
    PACACHE_ASSERT(fut.built(), "prepareWindowed requires a built future");
    future = std::move(fut);
    future.takeColdSeeds(); // MIN never reads them
    // Both tables hold one entry per *resident* block, so they stay
    // cache-capacity-sized and grow as needed.
    byNextUse.clear();
    handleOf.clear();
}

void
BeladyPolicy::onAccess(const BlockId &block, Time, std::size_t idx,
                       bool hit)
{
    PACACHE_ASSERT(future.built(),
                   "Belady requires prepare() before use");
    const std::size_t next = future.nextUse(idx);
    if (hit) {
        Handle *hp = handleOf.find(block.packed());
        PACACHE_ASSERT(hp, "Belady hit on unknown block");
        byNextUse.update(*hp, UseKey{next, block});
    } else {
        const Handle h = byNextUse.push(UseKey{next, block});
        const bool inserted =
            handleOf.emplace(block.packed(), h).second;
        PACACHE_ASSERT(inserted, "Belady double insert");
    }
}

void
BeladyPolicy::onRemove(const BlockId &block)
{
    Handle *hp = handleOf.find(block.packed());
    PACACHE_ASSERT(hp, "Belady removal of unknown block");
    byNextUse.erase(*hp);
    handleOf.erase(block.packed());
}

BlockId
BeladyPolicy::evict(Time, std::size_t)
{
    PACACHE_ASSERT(!byNextUse.empty(), "Belady evict on empty cache");
    // Furthest next use: the largest key (kNever sorts last).
    const BlockId victim = byNextUse.top().second;
    byNextUse.pop();
    handleOf.erase(victim.packed());
    return victim;
}

} // namespace pacache
