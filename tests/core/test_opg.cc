#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/cache.hh"
#include "core/opg.hh"

namespace pacache
{
namespace
{

std::vector<BlockAccess>
stream(std::initializer_list<std::pair<Time, BlockNum>> entries,
       DiskId disk = 0)
{
    std::vector<BlockAccess> out;
    for (const auto &[t, n] : entries)
        out.push_back({t, BlockId{disk, n}, false, out.size()});
    return out;
}

TEST(Opg, ColdMissesSeedDeterministicSet)
{
    const auto accs = stream({{0, 1}, {1, 2}, {2, 1}, {3, 3}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle);
    p.prepare(accs);
    // Cold misses: first refs of 1, 2, 3.
    EXPECT_EQ(p.deterministicMissCount(0), 3u);
}

TEST(Opg, MissRemovesItselfFromSet)
{
    const auto accs = stream({{0, 1}, {1, 2}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle);
    Cache c(4, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    EXPECT_EQ(p.deterministicMissCount(0), 1u);
    c.access(accs[1].block, 1, 1);
    EXPECT_EQ(p.deterministicMissCount(0), 0u);
}

TEST(Opg, EvictionAddsNextReferenceToSet)
{
    const auto accs =
        stream({{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 2}, {5, 3}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle);
    Cache c(2, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    c.access(accs[1].block, 1, 1);
    const std::size_t before = p.deterministicMissCount(0);
    c.access(accs[2].block, 2, 2); // evicts one of {1,2}
    // Its future re-reference becomes deterministic: -1 for the
    // serviced miss, +1 for the eviction.
    EXPECT_EQ(p.deterministicMissCount(0), before);
}

TEST(Opg, PenaltyOfNeverReusedBlockIsZeroFloored)
{
    const auto accs = stream({{0, 1}, {1, 2}, {100, 2}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, /*theta=*/0);
    Cache c(4, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    EXPECT_DOUBLE_EQ(p.penaltyOf(accs[0].block), 0.0);
}

TEST(Opg, PrefersEvictingNeverReusedBlock)
{
    // Block 9 never recurs; 1 recurs amid an otherwise-long idle gap,
    // so keeping it saves energy.
    const auto accs =
        stream({{0, 9}, {1, 1}, {2, 8}, {200, 1}, {400, 8}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, 0);
    Cache c(2, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    c.access(accs[1].block, 1, 1);
    const auto r = c.access(accs[2].block, 2, 2);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, (BlockId{0, 9}));
}

TEST(Opg, PenaltyIsSubadditivityGap)
{
    // One resident block whose next access at t=100 sits between
    // deterministic misses at t=0 (its own insertion... none) — use
    // an explicit construction: cold misses at 50 and 150 around a
    // re-reference at 100.
    const auto accs = stream({{0, 1}, {50, 2}, {100, 1}, {150, 3}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, 0);
    Cache c(4, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0); // resident 1, next at idx 2 (t=100)
    // Leader: cold miss of 2 at t=50; follower: cold miss of 3 at 150.
    const Energy expect =
        pm.envelope(50.0) + pm.envelope(50.0) - pm.envelope(100.0);
    EXPECT_NEAR(p.penaltyOf(accs[0].block), expect, 1e-9);
}

TEST(Opg, PracticalPricingDiffersFromOracle)
{
    const auto accs = stream({{0, 1}, {50, 2}, {100, 1}, {150, 3}});
    const PowerModel pm;
    OpgPolicy oracle(pm, DpmKind::Oracle, 0);
    OpgPolicy practical(pm, DpmKind::Practical, 0);
    Cache c1(4, oracle), c2(4, practical);
    oracle.prepare(accs);
    practical.prepare(accs);
    c1.access(accs[0].block, 0, 0);
    c2.access(accs[0].block, 0, 0);
    const Energy expect = pm.practicalEnergy(50.0) +
                          pm.practicalEnergy(50.0) -
                          pm.practicalEnergy(100.0);
    EXPECT_NEAR(practical.penaltyOf(accs[0].block), expect, 1e-9);
    EXPECT_NE(practical.penaltyOf(accs[0].block),
              oracle.penaltyOf(accs[0].block));
}

TEST(Opg, ThetaRoundsSmallPenaltiesUp)
{
    const auto accs = stream({{0, 1}, {50, 2}, {100, 1}, {150, 3}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, /*theta=*/1e6);
    Cache c(4, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    EXPECT_DOUBLE_EQ(p.penaltyOf(accs[0].block), 1e6);
}

TEST(Opg, HugeThetaDegradesToBelady)
{
    // With all penalties rounded to theta, ties break by furthest
    // next access — Belady's rule.
    const auto accs =
        stream({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 2}, {6, 3}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, 1e9);
    Cache c(3, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    c.access(accs[1].block, 1, 1);
    c.access(accs[2].block, 2, 2);
    const auto r = c.access(accs[3].block, 3, 3);
    // Belady would evict 3 (next use furthest among 1@4, 2@5, 3@6)...
    // except 4 itself is never reused; of residents {1,2,3} furthest
    // is 3.
    EXPECT_EQ(r.victim, (BlockId{0, 3}));
}

TEST(Opg, PenaltiesArePerDisk)
{
    std::vector<BlockAccess> accs;
    accs.push_back({0.0, BlockId{0, 1}, false, 0});
    accs.push_back({1.0, BlockId{1, 1}, false, 1});
    accs.push_back({100.0, BlockId{0, 1}, false, 2});
    accs.push_back({100.0, BlockId{1, 1}, false, 3});
    accs.push_back({101.0, BlockId{1, 2}, false, 4});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, 0);
    Cache c(4, p);
    p.prepare(accs);
    EXPECT_EQ(p.deterministicMissCount(0), 1u);
    EXPECT_EQ(p.deterministicMissCount(1), 2u);
    c.access(accs[0].block, 0.0, 0);
    c.access(accs[1].block, 1.0, 1);
    // Disk 1 has a deterministic miss at t=101 right after block
    // (1,1)'s next access; disk 0 has none after (0,1)'s. The disk-1
    // block is therefore cheaper to evict.
    EXPECT_LT(p.penaltyOf(BlockId{1, 1}), p.penaltyOf(BlockId{0, 1}));
}

TEST(Opg, HitUpdatesNextUse)
{
    const auto accs = stream({{0, 1}, {10, 1}, {500, 1}, {501, 2}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, 0);
    Cache c(4, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    const Energy before = p.penaltyOf(accs[0].block);
    c.access(accs[1].block, 10, 1); // hit; next use now at t=500
    const Energy after = p.penaltyOf(accs[1].block);
    // Different bracket -> different penalty (both finite).
    EXPECT_NE(before, after);
}

TEST(Opg, GapRescanStaysConsistentAtNonAssociativeTimes)
{
    // Regression: the gap rescan must price the whole-gap term per
    // block as E((t_x - t_lo) + (t_hi - t_x)), never the hoisted
    // E(t_hi - t_lo). FP addition is not associative, so the two can
    // round one ulp apart, and a repriced penalty then disagrees with
    // computePenalty's from-scratch form (and the reference policy).
    const Time tLo = 4.0;
    const Time tX = 7.0;
    const Time tHi = 1e16 + 6.0;
    // Chosen so the two summation orders round to different doubles.
    ASSERT_NE((tX - tLo) + (tHi - tX), tHi - tLo);

    // Capacity-2 walk: the miss on block 3 evicts block 2 (its next
    // use sits two seconds before block 5's cold miss, so its penalty
    // is the smallest), and that next use (idx 5) joining S rescans
    // the bounded gap (idx 3 @ tLo, idx 5 @ tHi) containing block 1's
    // next use at tX.
    const auto accs = stream({{0, 1},
                              {1, 2},
                              {2, 3},
                              {tLo, 4},
                              {tX, 1},
                              {tHi, 2},
                              {1e16 + 8, 5}});
    for (const DpmKind kind : {DpmKind::Oracle, DpmKind::Practical}) {
        const PowerModel pm;
        OpgPolicy p(pm, kind, 0);
        Cache c(2, p);
        p.prepare(accs);
        c.access(accs[0].block, accs[0].time, 0);
        c.access(accs[1].block, accs[1].time, 1);
        const CacheResult r = c.access(accs[2].block, accs[2].time, 2);
        ASSERT_TRUE(r.evicted);
        ASSERT_EQ(r.victim.block, 2u); // the rescan trigger
        p.validateInternalState(/*full=*/true);
        for (std::size_t i = 3; i < accs.size(); ++i) {
            c.access(accs[i].block, accs[i].time, i);
            p.validateInternalState(/*full=*/true);
        }
    }
}

TEST(Opg, RemoveBehavesLikeEviction)
{
    const auto accs = stream({{0, 1}, {50, 1}, {60, 2}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle, 0);
    Cache c(4, p);
    p.prepare(accs);
    c.access(accs[0].block, 0, 0);
    const std::size_t before = p.deterministicMissCount(0);
    p.onRemove(accs[0].block);
    EXPECT_EQ(p.deterministicMissCount(0), before + 1);
}

TEST(Opg, OutOfOrderAccessAfterPreparePanics)
{
    // prepare() streams its future in consumption order, so an access
    // that skips ahead is refused instead of reading another entry.
    const auto accs = stream({{0, 1}, {1, 2}, {2, 1}});
    const PowerModel pm;
    OpgPolicy p(pm, DpmKind::Oracle);
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

} // namespace
} // namespace pacache
