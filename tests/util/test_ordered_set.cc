/**
 * @file
 * OrderedSet unit tests plus randomized differential checks against
 * std::set / std::map models, sized to force chunk splits and
 * empty-chunk removal. neighbors() and forEachInRange() — the two
 * queries OPG's hot path depends on — are cross-checked against the
 * model on every round.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "support/payload_key.hh"
#include "util/ordered_set.hh"

namespace pacache
{
namespace
{

TEST(OrderedSet, InsertEraseContains)
{
    OrderedSet<std::size_t> s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(5));
    EXPECT_FALSE(s.insert(5)); // duplicate rejected
    EXPECT_TRUE(s.insert(3));
    EXPECT_TRUE(s.insert(9));
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.contains(4));
    EXPECT_TRUE(s.erase(5));
    EXPECT_FALSE(s.erase(5));
    EXPECT_FALSE(s.contains(5));
    EXPECT_EQ(s.size(), 2u);
    s.checkInvariants();
}

TEST(OrderedSet, NeighborsOnEmptyAndSingleton)
{
    OrderedSet<std::size_t> s;
    auto nb = s.neighbors(10);
    EXPECT_FALSE(nb.hasPred);
    EXPECT_FALSE(nb.hasSucc);
    EXPECT_FALSE(nb.present);

    s.insert(10);
    nb = s.neighbors(10);
    EXPECT_TRUE(nb.present);
    EXPECT_FALSE(nb.hasPred);
    EXPECT_FALSE(nb.hasSucc);

    nb = s.neighbors(5);
    EXPECT_FALSE(nb.present);
    EXPECT_FALSE(nb.hasPred);
    ASSERT_TRUE(nb.hasSucc);
    EXPECT_EQ(nb.succ, 10u);

    nb = s.neighbors(15);
    EXPECT_FALSE(nb.present);
    ASSERT_TRUE(nb.hasPred);
    EXPECT_EQ(nb.pred, 10u);
    EXPECT_FALSE(nb.hasSucc);
}

TEST(OrderedSet, PredecessorSuccessorAreStrict)
{
    OrderedSet<std::size_t> s;
    for (std::size_t k : {10u, 20u, 30u})
        s.insert(k);
    std::size_t out = 0;
    EXPECT_TRUE(s.predecessor(20, out));
    EXPECT_EQ(out, 10u); // strictly less, not the key itself
    EXPECT_TRUE(s.successor(20, out));
    EXPECT_EQ(out, 30u);
    EXPECT_FALSE(s.predecessor(10, out));
    EXPECT_FALSE(s.successor(30, out));
}

TEST(OrderedSet, RangeVisitIsExclusiveBothEnds)
{
    OrderedSet<std::size_t> s;
    for (std::size_t k = 0; k < 10; ++k)
        s.insert(k * 10);
    std::vector<std::size_t> seen;
    s.forEachInRange(20, 60, [&](std::size_t k) { seen.push_back(k); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{30, 40, 50}));
}

TEST(OrderedSet, SplitsAndDrainsChunks)
{
    // 3000 keys forces multiple chunk splits; erasing every key
    // afterwards must drain every chunk without tripping invariants.
    OrderedSet<std::size_t> s;
    for (std::size_t k = 0; k < 3000; ++k)
        s.insert((k * 2654435761u) % 100000);
    s.checkInvariants();
    const std::size_t n = s.size();
    std::vector<std::size_t> keys;
    s.forEach([&](std::size_t k) { keys.push_back(k); });
    ASSERT_EQ(keys.size(), n);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    for (std::size_t k : keys)
        EXPECT_TRUE(s.erase(k));
    EXPECT_TRUE(s.empty());
    s.checkInvariants();
}

TEST(OrderedSet, MappedFormStoresValues)
{
    OrderedSet<std::size_t, std::uint32_t> m;
    EXPECT_TRUE(m.insert(7, 70u));
    EXPECT_TRUE(m.insert(3, 30u));
    EXPECT_FALSE(m.insert(7, 99u)); // duplicate key keeps old value
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70u);
    EXPECT_EQ(m.find(5), nullptr);

    std::vector<std::pair<std::size_t, std::uint32_t>> seen;
    m.forEach([&](std::size_t k, std::uint32_t v) {
        seen.emplace_back(k, v);
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<std::size_t, std::uint32_t>{3, 30}));
    EXPECT_EQ(seen[1], (std::pair<std::size_t, std::uint32_t>{7, 70}));
    m.checkInvariants();
}

TEST(OrderedSet, RandomizedDifferentialVsStdSet)
{
    OrderedSet<std::size_t> s;
    std::set<std::size_t> model;
    std::mt19937_64 rng(99);
    const std::size_t universe = 4096;

    for (int step = 0; step < 30000; ++step) {
        const std::size_t k = rng() % universe;
        switch (rng() % 4) {
        case 0:
        case 1: // bias toward growth so chunks split
            ASSERT_EQ(s.insert(k), model.insert(k).second);
            break;
        case 2:
            ASSERT_EQ(s.erase(k), model.erase(k) > 0);
            break;
        default: {
            ASSERT_EQ(s.contains(k), model.count(k) > 0);
            const auto nb = s.neighbors(k);
            auto it = model.lower_bound(k);
            const bool present = it != model.end() && *it == k;
            ASSERT_EQ(nb.present, present);
            if (it == model.begin()) {
                ASSERT_FALSE(nb.hasPred);
            } else {
                ASSERT_TRUE(nb.hasPred);
                ASSERT_EQ(nb.pred, *std::prev(it));
            }
            auto succ = model.upper_bound(k);
            if (succ == model.end()) {
                ASSERT_FALSE(nb.hasSucc);
            } else {
                ASSERT_TRUE(nb.hasSucc);
                ASSERT_EQ(nb.succ, *succ);
            }
            break;
        }
        }
        ASSERT_EQ(s.size(), model.size());
        if (step % 1000 == 0)
            s.checkInvariants();
    }
    s.checkInvariants();

    // Range scans at random bounds must agree with the model.
    for (int round = 0; round < 200; ++round) {
        std::size_t lo = rng() % universe;
        std::size_t hi = rng() % universe;
        if (hi < lo)
            std::swap(lo, hi);
        std::vector<std::size_t> got;
        s.forEachInRange(lo, hi,
                         [&](std::size_t k) { got.push_back(k); });
        std::vector<std::size_t> want;
        for (auto it = model.upper_bound(lo);
             it != model.end() && *it < hi; ++it)
            want.push_back(*it);
        ASSERT_EQ(got, want) << "range (" << lo << ", " << hi << ")";
    }
}

TEST(OrderedSet, RandomizedDifferentialVsStdMap)
{
    OrderedSet<std::size_t, std::uint64_t> m;
    std::map<std::size_t, std::uint64_t> model;
    std::mt19937_64 rng(7);

    for (int step = 0; step < 20000; ++step) {
        const std::size_t k = rng() % 2048;
        const std::uint64_t v = rng();
        switch (rng() % 3) {
        case 0:
        case 1:
            ASSERT_EQ(m.insert(k, v), model.emplace(k, v).second);
            break;
        default:
            ASSERT_EQ(m.erase(k), model.erase(k) > 0);
            break;
        }
        const std::size_t probe = rng() % 2048;
        auto it = model.find(probe);
        const std::uint64_t *got = m.find(probe);
        if (it == model.end()) {
            ASSERT_EQ(got, nullptr);
        } else {
            ASSERT_NE(got, nullptr);
            ASSERT_EQ(*got, it->second);
        }
        if (step % 1000 == 0)
            m.checkInvariants();
    }
    m.checkInvariants();

    // Mapped range scan carries the values along.
    std::vector<std::pair<std::size_t, std::uint64_t>> got, want;
    m.forEachInRange(100, 1900, [&](std::size_t k, std::uint64_t v) {
        got.emplace_back(k, v);
    });
    for (auto it = model.upper_bound(100);
         it != model.end() && it->first < 1900; ++it)
        want.emplace_back(it->first, it->second);
    EXPECT_EQ(got, want);
}

TEST(OrderedSet, StructKeyPayloadRoundTrips)
{
    // Keys ordered by index alone, each carrying a payload (OPG's
    // timed deterministic misses): every neighbor and range answer
    // must hand back the payload stored with that index, across
    // chunk splits and chunk drains.
    OrderedSet<test::PayloadKey> s;
    test::expectPayloadsRoundTrip(s, 21, 30000, std::size_t(1) << 13);
}

} // namespace
} // namespace pacache
