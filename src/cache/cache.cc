#include "cache/cache.hh"

#include "obs/observer.hh"
#include "util/logging.hh"

namespace pacache
{

Cache::Cache(std::size_t capacity_blocks, ReplacementPolicy &policy)
    : capacityBlocks(capacity_blocks), repl(&policy)
{
    PACACHE_ASSERT(capacity_blocks > 0, "cache needs positive capacity");
    // The resident table reaches exactly capacity entries; sizing it
    // now keeps the steady-state churn rehash-free.
    resident.reserve(capacity_blocks);
}

bool
Cache::recordFirstSeen(const BlockId &block)
{
    if (block.block >= kSeenBitmapLimit)
        return everSeenSparse.testAndSet(block.packed());
    if (block.disk >= seenBits.size())
        seenBits.resize(block.disk + 1);
    auto &bits = seenBits[block.disk];
    const std::size_t word = block.block >> 6;
    if (word >= bits.size())
        bits.resize(std::max(word + 1, bits.size() * 2), 0);
    const uint64_t mask = uint64_t{1} << (block.block & 63);
    const bool first = !(bits[word] & mask);
    bits[word] |= mask;
    return first;
}

void
Cache::dropFlags(const BlockId &block, const Flags &flags)
{
    if (flags.dirty && block.disk < dirtyPerDisk.size())
        dirtyPerDisk[block.disk].erase(block.block);
    if (flags.logged && block.disk < loggedPerDisk.size())
        loggedPerDisk[block.disk].erase(block.block);
}

CacheResult
Cache::access(const BlockId &block, Time now, std::size_t idx)
{
    CacheResult result;
    ++counters.accesses;
    if (resident.find(block.packed())) {
        ++counters.hits;
        result.hit = true;
        // coldMisses counts first-ever demand accesses. Without
        // prefetching a hit implies a prior demand access, so the hit
        // path skips the first-seen probe; once insert() has run, a
        // block's first access can hit and the probe is needed.
        if (counters.prefetchInserts && recordFirstSeen(block))
            ++counters.coldMisses;
        repl->onAccess(block, now, idx, true);
        if (obs)
            obs->cacheAccess(true);
        return result;
    }

    if (recordFirstSeen(block)) {
        ++counters.coldMisses;
        result.coldMiss = true;
    }
    ++counters.misses;
    repl->beforeMiss(block, now, idx);
    bringIn(block, now, idx, result);
    if (obs)
        obs->cacheAccess(false);
    return result;
}

CacheResult
Cache::insert(const BlockId &block, Time now, std::size_t idx)
{
    CacheResult result;
    if (resident.contains(block.packed())) {
        result.hit = true;
        return result;
    }
    ++counters.prefetchInserts;
    bringIn(block, now, idx, result);
    return result;
}

void
Cache::bringIn(const BlockId &block, Time now, std::size_t idx,
               CacheResult &result)
{
    if (resident.size() >= capacityBlocks) {
        const BlockId victim = repl->evict(now, idx);
        Flags flags;
        const bool wasResident = resident.take(victim.packed(), flags);
        PACACHE_ASSERT(wasResident,
                       "policy evicted a non-resident block");
        result.evicted = true;
        result.victim = victim;
        result.victimDirty = flags.dirty;
        result.victimLogged = flags.logged;
        dropFlags(victim, flags);
        ++counters.evictions;
        if (obs)
            obs->cacheEviction(victim, result.victimDirty);
    }

    resident.emplace(block.packed(), Flags{});
    repl->onAccess(block, now, idx, false);
}

void
Cache::markDirty(const BlockId &block)
{
    Flags *flags = resident.find(block.packed());
    PACACHE_ASSERT(flags, "markDirty on non-resident block");
    if (flags->dirty)
        return;
    flags->dirty = true;
    if (block.disk >= dirtyPerDisk.size())
        dirtyPerDisk.resize(block.disk + 1);
    dirtyPerDisk[block.disk].emplace(block.block, 0);
}

void
Cache::markClean(const BlockId &block)
{
    Flags *flags = resident.find(block.packed());
    PACACHE_ASSERT(flags, "markClean on non-resident block");
    if (!flags->dirty)
        return;
    flags->dirty = false;
    dirtyPerDisk[block.disk].erase(block.block);
}

bool
Cache::isDirty(const BlockId &block) const
{
    const Flags *flags = resident.find(block.packed());
    return flags && flags->dirty;
}

void
Cache::markLogged(const BlockId &block)
{
    Flags *flags = resident.find(block.packed());
    PACACHE_ASSERT(flags, "markLogged on non-resident block");
    if (flags->logged)
        return;
    flags->logged = true;
    if (block.disk >= loggedPerDisk.size())
        loggedPerDisk.resize(block.disk + 1);
    loggedPerDisk[block.disk].emplace(block.block, 0);
}

void
Cache::clearLogged(const BlockId &block)
{
    Flags *flags = resident.find(block.packed());
    if (!flags || !flags->logged)
        return;
    flags->logged = false;
    loggedPerDisk[block.disk].erase(block.block);
}

bool
Cache::isLogged(const BlockId &block) const
{
    const Flags *flags = resident.find(block.packed());
    return flags && flags->logged;
}

std::vector<BlockId>
Cache::dirtyBlocksOf(DiskId disk) const
{
    std::vector<BlockId> out;
    if (disk < dirtyPerDisk.size()) {
        out.reserve(dirtyPerDisk[disk].size());
        dirtyPerDisk[disk].forEach([&](BlockNum b, uint8_t) {
            out.push_back(BlockId{disk, b});
        });
    }
    return out;
}

std::vector<BlockId>
Cache::loggedBlocksOf(DiskId disk) const
{
    std::vector<BlockId> out;
    if (disk < loggedPerDisk.size()) {
        out.reserve(loggedPerDisk[disk].size());
        loggedPerDisk[disk].forEach([&](BlockNum b, uint8_t) {
            out.push_back(BlockId{disk, b});
        });
    }
    return out;
}

std::size_t
Cache::dirtyCount(DiskId disk) const
{
    return disk < dirtyPerDisk.size() ? dirtyPerDisk[disk].size() : 0;
}

} // namespace pacache
