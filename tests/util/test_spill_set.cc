#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "support/payload_key.hh"
#include "util/ordered_set.hh"
#include "util/spill_pool.hh"
#include "util/spill_set.hh"

namespace pacache
{
namespace
{

TEST(SpillableOrderedSet, BasicSetOperations)
{
    SpillPool pool(1 << 20);
    SpillableOrderedSet<std::size_t> s;
    s.attach(pool);

    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(5));
    EXPECT_FALSE(s.insert(5));
    EXPECT_TRUE(s.insert(1));
    EXPECT_TRUE(s.insert(9));
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.contains(4));

    const auto nb = s.neighbors(5);
    EXPECT_TRUE(nb.present);
    ASSERT_TRUE(nb.hasPred);
    EXPECT_EQ(nb.pred, 1u);
    ASSERT_TRUE(nb.hasSucc);
    EXPECT_EQ(nb.succ, 9u);

    EXPECT_TRUE(s.erase(5));
    EXPECT_FALSE(s.erase(5));
    EXPECT_EQ(s.size(), 2u);
    s.checkInvariants();
}

TEST(SpillableOrderedSet, MapFormFindAndTake)
{
    SpillPool pool(1 << 20);
    SpillableOrderedSet<std::size_t, std::uint64_t> m;
    m.attach(pool);

    EXPECT_TRUE(m.insert(3, 30));
    EXPECT_TRUE(m.insert(7, 70));
    EXPECT_FALSE(m.insert(3, 99));
    ASSERT_NE(m.find(3), nullptr);
    EXPECT_EQ(*m.find(3), 30u);
    EXPECT_EQ(m.find(4), nullptr);

    std::uint64_t out = 0;
    EXPECT_TRUE(m.take(7, out));
    EXPECT_EQ(out, 70u);
    EXPECT_FALSE(m.take(7, out));
    EXPECT_EQ(m.size(), 1u);
    m.checkInvariants();
}

/**
 * Oracle comparison under a tight budget: every query an OPG replay
 * issues must answer exactly what the in-memory OrderedSet answers,
 * while pages continuously spill and refault.
 */
TEST(SpillableOrderedSet, MatchesOrderedSetUnderTightBudget)
{
    // ~4 pages resident out of hundreds: constant page churn.
    SpillPool pool(16 * 1024);
    SpillableOrderedSet<std::size_t> spilled;
    spilled.attach(pool);
    OrderedSet<std::size_t> model;

    std::mt19937_64 rng(1234);
    std::uniform_int_distribution<std::size_t> keyDist(0, 1 << 20);
    for (int step = 0; step < 60000; ++step) {
        const std::size_t k = keyDist(rng);
        switch (rng() % 4) {
          case 0: {
            EXPECT_EQ(spilled.insert(k), model.insert(k));
            break;
          }
          case 1: {
            EXPECT_EQ(spilled.erase(k), model.erase(k));
            break;
          }
          case 2: {
            const auto got = spilled.neighbors(k);
            const auto want = model.neighbors(k);
            EXPECT_EQ(got.present, want.present);
            EXPECT_EQ(got.hasPred, want.hasPred);
            EXPECT_EQ(got.hasSucc, want.hasSucc);
            if (want.hasPred)
                EXPECT_EQ(got.pred, want.pred);
            if (want.hasSucc)
                EXPECT_EQ(got.succ, want.succ);
            break;
          }
          default: {
            EXPECT_EQ(spilled.contains(k), model.contains(k));
            break;
          }
        }
    }
    EXPECT_EQ(spilled.size(), model.size());
    EXPECT_GT(spilled.faults(), 0u);
    EXPECT_GT(pool.evictions(), 0u);
    spilled.checkInvariants();

    // Full-order sweep: forEach visits the same keys ascending.
    std::vector<std::size_t> got, want;
    spilled.forEach([&](std::size_t k) { got.push_back(k); });
    model.forEach([&](std::size_t k) { want.push_back(k); });
    EXPECT_EQ(got, want);
}

TEST(SpillableOrderedSet, WithNeighborsFormsMatchModel)
{
    SpillPool pool(8 * 1024);
    SpillableOrderedSet<std::size_t> spilled;
    spilled.attach(pool);
    OrderedSet<std::size_t> model;

    std::mt19937_64 rng(77);
    std::uniform_int_distribution<std::size_t> keyDist(0, 1 << 16);
    for (int step = 0; step < 20000; ++step) {
        const std::size_t k = keyDist(rng);
        if (rng() % 2) {
            SpillableOrderedSet<std::size_t>::Neighbors got;
            OrderedSet<std::size_t>::Neighbors want;
            EXPECT_EQ(spilled.insertWithNeighbors(k, got),
                      model.insertWithNeighbors(k, want));
            EXPECT_EQ(got.hasPred, want.hasPred);
            EXPECT_EQ(got.hasSucc, want.hasSucc);
            if (want.hasPred)
                EXPECT_EQ(got.pred, want.pred);
            if (want.hasSucc)
                EXPECT_EQ(got.succ, want.succ);
        } else {
            SpillableOrderedSet<std::size_t>::Neighbors got;
            OrderedSet<std::size_t>::Neighbors want;
            EXPECT_EQ(spilled.eraseWithNeighbors(k, got),
                      model.eraseWithNeighbors(k, want));
            EXPECT_EQ(got.hasPred, want.hasPred);
            EXPECT_EQ(got.hasSucc, want.hasSucc);
            if (want.hasPred)
                EXPECT_EQ(got.pred, want.pred);
            if (want.hasSucc)
                EXPECT_EQ(got.succ, want.succ);
        }
    }
    spilled.checkInvariants();
}

TEST(SpillableOrderedSet, RangeScansMatchUnderSpill)
{
    SpillPool pool(8 * 1024);
    SpillableOrderedSet<std::size_t, std::uint32_t> spilled;
    spilled.attach(pool);
    OrderedSet<std::size_t, std::uint32_t> model;

    std::mt19937_64 rng(9);
    std::uniform_int_distribution<std::size_t> keyDist(0, 1 << 14);
    for (int i = 0; i < 8000; ++i) {
        const std::size_t k = keyDist(rng);
        const auto v = static_cast<std::uint32_t>(k * 2 + 1);
        spilled.insert(k, v);
        model.insert(k, v);
    }
    for (int i = 0; i < 200; ++i) {
        std::size_t lo = keyDist(rng);
        std::size_t hi = keyDist(rng);
        if (hi < lo)
            std::swap(lo, hi);
        std::vector<std::pair<std::size_t, std::uint32_t>> got, want;
        spilled.forEachInRange(
            lo, hi, [&](std::size_t k, std::uint32_t v) {
                got.emplace_back(k, v);
            });
        model.forEachInRange(
            lo, hi, [&](std::size_t k, std::uint32_t v) {
                want.emplace_back(k, v);
            });
        EXPECT_EQ(got, want);
    }
}

TEST(SpillableOrderedSet, EraseAtMinDrainsLikeOpgRetirement)
{
    // OPG's deterministic-miss pattern: bulk ascending seeding, then
    // erase-at-minimum retirement mixed with mid-range churn.
    SpillPool pool(4 * 1024);
    SpillableOrderedSet<std::size_t> s;
    s.attach(pool);
    const std::size_t n = 5000;
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_TRUE(s.insert(k));
    EXPECT_EQ(s.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
        SpillableOrderedSet<std::size_t>::Neighbors nb;
        ASSERT_TRUE(s.eraseWithNeighbors(k, nb));
        EXPECT_FALSE(nb.hasPred);
        if (k + 1 < n) {
            ASSERT_TRUE(nb.hasSucc);
            EXPECT_EQ(nb.succ, k + 1);
        } else {
            EXPECT_FALSE(nb.hasSucc);
        }
    }
    EXPECT_TRUE(s.empty());
    s.checkInvariants();
}

TEST(SpillableOrderedSet, SharedPoolAcrossManySets)
{
    // The real deployment: one pool budgets many per-disk sets.
    SpillPool pool(8 * 1024);
    std::vector<SpillableOrderedSet<std::size_t>> sets(16);
    for (auto &s : sets)
        s.attach(pool);
    for (std::size_t k = 0; k < 2000; ++k)
        EXPECT_TRUE(sets[k % sets.size()].insert(k));
    std::size_t total = 0;
    for (auto &s : sets) {
        s.checkInvariants();
        total += s.size();
    }
    EXPECT_EQ(total, 2000u);
    EXPECT_GT(pool.evictions(), 0u);
    pool.checkInvariants();
}

TEST(SpillableOrderedSet, StructKeyPayloadRoundTripsThroughSpill)
{
    // A one-byte budget keeps only the page an operation has pinned
    // resident (a one-page pool): every other page round-trips its
    // keys, payloads included, through a spill slot between touches,
    // and cross-page neighbors come from the resident page metadata.
    SpillPool pool(1);
    SpillableOrderedSet<test::PayloadKey> s;
    s.attach(pool);
    test::expectPayloadsRoundTrip(s, 22, 30000, std::size_t(1) << 13);
    EXPECT_GT(s.pages(), 4u);
    EXPECT_GT(s.faults(), 1000u);
    EXPECT_LE(s.residentPages(), 1u);
}

} // namespace
} // namespace pacache
