#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/belady.hh"
#include "cache/cache.hh"
#include "cache/lru.hh"
#include "trace/synthetic.hh"

namespace pacache
{
namespace
{

std::vector<BlockAccess>
stream(std::initializer_list<BlockNum> blocks)
{
    std::vector<BlockAccess> out;
    Time t = 0;
    for (BlockNum n : blocks) {
        out.push_back({t, BlockId{0, n}, false, out.size()});
        t += 1.0;
    }
    return out;
}

uint64_t
missesWith(ReplacementPolicy &p, const std::vector<BlockAccess> &accs,
           std::size_t capacity)
{
    Cache c(capacity, p);
    p.prepare(accs);
    for (std::size_t i = 0; i < accs.size(); ++i)
        c.access(accs[i].block, accs[i].time, i);
    return c.stats().misses;
}

TEST(BeladyTest, TextbookExample)
{
    // OPT on 2 3 2 1 5 2 4 5 3 2 5 2 with 3 frames: misses at
    // 2,3,1,5,4 and the second-to-last 2 -> 6 misses.
    const auto accs = stream({2, 3, 2, 1, 5, 2, 4, 5, 3, 2, 5, 2});
    BeladyPolicy p;
    EXPECT_EQ(missesWith(p, accs, 3), 6u);
}

TEST(BeladyTest, EvictsFurthestNextUse)
{
    const auto accs = stream({1, 2, 3, 4, 1, 2, 3});
    BeladyPolicy p;
    Cache c(3, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    c.access(accs[1].block, 1, 1);
    c.access(accs[2].block, 2, 2);
    // Access 4: blocks 1,2,3 are next used at 4,5,6. Insert of 4
    // (never used again... it isn't referenced later) evicts the
    // furthest: block 3.
    const auto r = c.access(accs[3].block, 3, 3);
    EXPECT_EQ(r.victim, (BlockId{0, 3}));
}

TEST(BeladyTest, RequiresPrepare)
{
    BeladyPolicy p;
    EXPECT_ANY_THROW(p.onAccess(BlockId{0, 1}, 0, 0, false));
}

TEST(BeladyTest, OutOfOrderAccessAfterPreparePanics)
{
    // prepare() streams its future in consumption order, so an access
    // that skips ahead is refused instead of reading another entry.
    const auto accs = stream({1, 2, 1});
    BeladyPolicy p;
    p.prepare(accs);
    try {
        p.onAccess(accs[1].block, accs[1].time, 1, false);
        FAIL() << "expected a panic";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("consumed out of order"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BeladyTest, NeverWorseThanLruOnRandomTraces)
{
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        SyntheticParams sp;
        sp.numRequests = 4000;
        sp.numDisks = 2;
        sp.seed = seed;
        sp.address.footprintBlocks = 300;
        const Trace t = generateSynthetic(sp);
        const auto accs = expandTrace(t);

        BeladyPolicy belady;
        LruPolicy lru;
        const uint64_t bm = missesWith(belady, accs, 64);
        const uint64_t lm = missesWith(lru, accs, 64);
        EXPECT_LE(bm, lm) << "seed " << seed;
    }
}

TEST(BeladyTest, InfiniteReuseDistanceBlocksGoFirst)
{
    // Block 9 never recurs; it must be the first victim.
    const auto accs = stream({1, 2, 9, 1, 2, 3, 1, 2, 3});
    BeladyPolicy p;
    Cache c(3, p);
    p.prepare(accs);
    for (std::size_t i = 0; i < 5; ++i)
        c.access(accs[i].block, accs[i].time, i);
    const auto r = c.access(accs[5].block, accs[5].time, 5);
    EXPECT_EQ(r.victim, (BlockId{0, 9}));
}

TEST(BeladyTest, PerfectOnCyclicWorkloadWithEnoughRoom)
{
    // Cyclic over 4 blocks with capacity 4: only cold misses.
    std::vector<BlockAccess> accs;
    for (int i = 0; i < 40; ++i)
        accs.push_back({static_cast<Time>(i),
                        BlockId{0, static_cast<BlockNum>(i % 4)}, false,
                        static_cast<std::size_t>(i)});
    BeladyPolicy p;
    EXPECT_EQ(missesWith(p, accs, 4), 4u);
}

} // namespace
} // namespace pacache
