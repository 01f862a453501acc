/**
 * @file
 * Allocation-count regression guard for the replay step's disk path.
 *
 * This binary replaces the global operator new with a counting one,
 * so it is built apart from the other test binaries, under its own
 * ctest label ("alloc"), and not in sanitizer builds (whose runtimes
 * own operator new).
 *
 * The guard: once a replay is warmed up, issuing a disk request must
 * not allocate. A request is plain data queued by value, its
 * completion runs through the disk's one completion hook, and the
 * service event's callback fits std::function's inline buffer. What
 * may still allocate is amortized: the disk's FCFS deque taking a new
 * node every few requests, and the idle-gap vectors growing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <random>

#include "cache/lru.hh"
#include "core/storage_system.hh"
#include "disk/dpm.hh"

namespace
{
std::atomic<std::uint64_t> newCalls{0};
} // namespace

void *
operator new(std::size_t n)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace pacache
{
namespace
{

/** Replay @p n random accesses from @p rng through @p sys. */
void
replay(StorageSystem &sys, std::mt19937_64 &rng, std::size_t n,
       std::size_t &idx, Time &now)
{
    for (std::size_t i = 0; i < n; ++i, ++idx) {
        // 20 ms apart: the disks keep up, idle briefly and, under the
        // practical DPM, sometimes spin down and back up.
        now += 0.02 * static_cast<double>(1 + rng() % 8) / 4.0;
        const BlockId block{static_cast<DiskId>(rng() % 4),
                            static_cast<BlockNum>(rng() % 100000)};
        sys.step(BlockAccess{now, block, rng() % 4 == 0, idx}, idx);
    }
}

std::uint64_t
diskRequests(const StorageSystem &sys)
{
    const auto &per = sys.diskAccesses();
    return std::accumulate(per.begin(), per.end(), std::uint64_t{0});
}

TEST(Allocations, WarmReplayDiskRequestsDoNotAllocate)
{
    PowerModel pm;
    ServiceModel sm(pm.spec());
    EventQueue eq;
    PracticalDpm dpm(pm);
    LruPolicy policy;
    Cache cache(256, policy);
    DiskArray disks(4, eq, pm, sm, dpm);
    StorageConfig cfg;
    cfg.writePolicy = WritePolicy::WriteBack;
    StorageSystem sys(eq, cache, disks, cfg);

    std::mt19937_64 rng(5);
    std::size_t idx = 0;
    Time now = 0;
    replay(sys, rng, 20000, idx, now); // fill the cache, grow buffers

    const std::uint64_t requestsBefore = diskRequests(sys);
    const std::uint64_t newsBefore = newCalls.load();
    replay(sys, rng, 5000, idx, now);
    const std::uint64_t news = newCalls.load() - newsBefore;
    const std::uint64_t requests = diskRequests(sys) - requestsBefore;
    sys.finish(now);

    // Nearly every access misses; a quarter are writes whose dirty
    // victims add write-backs.
    ASSERT_GT(requests, 4000u);
    const double perRequest =
        static_cast<double>(news) / static_cast<double>(requests);
    RecordProperty("allocations_per_request",
                   std::to_string(perRequest));
    EXPECT_LT(perRequest, 0.5)
        << news << " operator new calls for " << requests
        << " disk requests";
}

} // namespace
} // namespace pacache
