/**
 * @file
 * WindowedFuture must reproduce FutureKnowledge exactly: the
 * backward chunked pass over the .pct file, stitched across chunk
 * boundaries by the carry map, yields the *global* next-use chain for
 * every window and chunk size — including window 1 and a chunk
 * smaller than one multi-block request. Every cold seed and every
 * timed next-use query must also report the exact arrival time of
 * the index it names, since OPG prices idle periods from those times
 * alone.
 */

#include <gtest/gtest.h>

#include "cache/future.hh"
#include "cache/future_window.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"

#include "../tracefmt/temp_file.hh"

namespace pacache
{
namespace
{

Trace
workload(uint64_t seed = 5)
{
    SyntheticParams p;
    p.numRequests = 1200;
    p.numDisks = 5;
    p.arrival = ArrivalModel::exponential(40.0);
    p.address.footprintBlocks = 150; // dense reuse: long next-use chains
    p.seed = seed;
    return generateSynthetic(p);
}

/** A few multi-block requests, so expansion crosses chunk bounds. */
Trace
multiBlockWorkload()
{
    Trace t;
    const uint32_t lens[] = {1, 3, 7, 2, 5, 1, 4, 8, 2, 6};
    Time now = 0;
    for (int i = 0; i < 60; ++i) {
        TraceRecord rec;
        rec.time = now;
        rec.disk = static_cast<DiskId>(i % 3);
        rec.block = static_cast<BlockNum>((i * 11) % 40);
        rec.numBlocks = lens[i % 10];
        rec.write = (i % 4) == 0;
        t.append(rec);
        now += 0.25;
    }
    return t;
}

std::string
writeTracePct(const Trace &t, const std::string &name)
{
    const std::string path = test::tempPath(name);
    tracefmt::MemorySource src(t);
    tracefmt::writePct(path, src);
    return path;
}

/**
 * Drive @p fut through the whole access stream in consumption order
 * and compare every next-use index against the materialized
 * reference. @p timed consumes through the timed nextUse() overload
 * (OPG's) and checks every reported time against the access records;
 * untimed consumes through the index-only one (Belady's).
 */
void
expectMatchesReference(const Trace &t, WindowedFuture &fut, bool timed)
{
    const std::vector<BlockAccess> accesses = expandTrace(t);
    const FutureKnowledge ref = FutureKnowledge::build(accesses);
    ASSERT_TRUE(fut.built());
    ASSERT_EQ(fut.size(), ref.size());
    EXPECT_EQ(fut.numDisks(), t.numDisks());
    EXPECT_EQ(fut.endTime(), t.endTime());

    // Cold seeds are exactly the first-reference accesses, ascending.
    std::size_t seed_at = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!ref.isFirstReference(i))
            continue;
        ASSERT_LT(seed_at, fut.coldSeeds().size());
        EXPECT_EQ(fut.coldSeeds()[seed_at].idx, i);
        EXPECT_EQ(fut.coldSeeds()[seed_at].disk,
                  accesses[i].block.disk);
        EXPECT_EQ(fut.coldSeeds()[seed_at].time, accesses[i].time)
            << "cold " << i;
        ++seed_at;
    }
    EXPECT_EQ(seed_at, fut.coldSeeds().size());

    std::size_t timed_nexts = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!timed) {
            EXPECT_EQ(fut.nextUse(i), ref.nextUse(i)) << "idx " << i;
            continue;
        }
        Time time = -1;
        const std::size_t next = fut.nextUse(i, time);
        EXPECT_EQ(next, ref.nextUse(i)) << "idx " << i;
        if (next == WindowedFuture::kNever)
            continue;
        EXPECT_EQ(time, accesses[next].time) << "successor of " << i;
        ++timed_nexts;
    }
    // Every non-first access is some earlier access's timed next use.
    if (timed) {
        EXPECT_EQ(timed_nexts, ref.size() - fut.coldSeeds().size());
    }
}

TEST(WindowedFuture, ExactForEveryWindowAndChunkSize)
{
    const Trace t = workload();
    const std::string pct = writeTracePct(t, "winfut_sizes.pct");
    const std::size_t chunk = 64;
    // The satellite matrix: 1, chunk-1, chunk, chunk+1, "infinite".
    const std::size_t windows[] = {1, chunk - 1, chunk, chunk + 1,
                                   std::size_t(1) << 20};
    for (const std::size_t w : windows) {
        WindowedFuture::Options opts;
        opts.windowEntries = w;
        opts.chunkAccesses = chunk;
        WindowedFuture fut(pct, opts);
        SCOPED_TRACE("window " + std::to_string(w));
        expectMatchesReference(t, fut, /*timed=*/true);
    }
}

TEST(WindowedFuture, ChunkBoundariesInsideMultiBlockRequests)
{
    const Trace t = multiBlockWorkload();
    const std::string pct = writeTracePct(t, "winfut_multiblock.pct");
    // Chunks smaller than the largest request force the backward
    // pass to split a single record's expansion across chunks.
    for (const std::size_t chunk : {std::size_t(1), std::size_t(7),
                                    std::size_t(16)}) {
        WindowedFuture::Options opts;
        opts.windowEntries = 4;
        opts.chunkAccesses = chunk;
        WindowedFuture fut(pct, opts);
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        expectMatchesReference(t, fut, /*timed=*/true);
    }
}

TEST(WindowedFuture, IndexOnlyNextUseForBelady)
{
    const Trace t = workload(9);
    const std::string pct = writeTracePct(t, "winfut_untimed.pct");
    WindowedFuture::Options opts;
    opts.windowEntries = 32;
    opts.chunkAccesses = 100;
    WindowedFuture fut(pct, opts);
    expectMatchesReference(t, fut, /*timed=*/false);
}

TEST(WindowedFuture, MoveTransfersTheStream)
{
    const Trace t = workload(13);
    const std::string pct = writeTracePct(t, "winfut_move.pct");
    WindowedFuture::Options opts;
    opts.windowEntries = 16;
    opts.chunkAccesses = 50;
    WindowedFuture a(pct, opts);
    const std::vector<BlockAccess> accesses = expandTrace(t);
    const FutureKnowledge ref = FutureKnowledge::build(accesses);

    // Consume a prefix, move, and continue on the target.
    const std::size_t half = ref.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        ASSERT_EQ(a.nextUse(i), ref.nextUse(i));
    WindowedFuture b(std::move(a));
    for (std::size_t i = half; i < ref.size(); ++i)
        ASSERT_EQ(b.nextUse(i), ref.nextUse(i));
}

} // namespace
} // namespace pacache
