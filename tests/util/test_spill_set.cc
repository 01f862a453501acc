/**
 * @file
 * SpillableOrderedSet tests in two suites. OrderedSet is the ordered
 * set/map contract — insert/erase, neighbor queries, exclusive range
 * visits, page splits and drains, mapped values, and randomized
 * differentials against std::set / std::map — with each case run
 * under an unbounded pool and under a one-page budget (the payload
 * differential's one-page input is in the second suite).
 * SpillableOrderedSet covers a budgeted pool's basic set and map
 * operations and the spilling itself: tight budgets with constant
 * page churn, OPG's retirement pattern, and one pool shared by many
 * sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "support/payload_key.hh"
#include "util/spill_pool.hh"
#include "util/spill_set.hh"

namespace pacache
{
namespace
{

using Set = SpillableOrderedSet<std::size_t>;

/**
 * Run @p body under an unbounded pool (nothing ever spills) and under
 * a one-byte budget, which keeps only the page an operation pins
 * resident: every other page round-trips through a spill slot
 * between touches.
 */
template <typename Body>
void
underEveryBudget(Body &&body)
{
    for (const std::size_t budget : {SIZE_MAX, std::size_t{1}}) {
        SCOPED_TRACE(budget == SIZE_MAX ? "unbounded pool"
                                        : "one-page budget");
        SpillPool pool(budget);
        body(pool);
        if (budget == SIZE_MAX) {
            EXPECT_EQ(pool.evictions(), 0u);
        }
    }
}

/** Expect @p nb to hold @p model's strict neighbors of @p k. */
void
expectNeighborsOf(const Set::Neighbors &nb,
                  const std::set<std::size_t> &model, std::size_t k)
{
    const auto at = model.lower_bound(k);
    const auto succ = model.upper_bound(k);
    ASSERT_EQ(nb.hasPred, at != model.begin()) << "key " << k;
    if (nb.hasPred) {
        EXPECT_EQ(nb.pred, *std::prev(at)) << "pred of " << k;
    }
    ASSERT_EQ(nb.hasSucc, succ != model.end()) << "key " << k;
    if (nb.hasSucc) {
        EXPECT_EQ(nb.succ, *succ) << "succ of " << k;
    }
}

TEST(OrderedSet, InsertEraseContains)
{
    underEveryBudget([](SpillPool &pool) {
        Set s;
        s.attach(pool);
        EXPECT_TRUE(s.empty());
        EXPECT_TRUE(s.insert(5));
        EXPECT_FALSE(s.insert(5)); // duplicate rejected
        EXPECT_TRUE(s.insert(3));
        EXPECT_TRUE(s.insert(9));
        EXPECT_EQ(s.size(), 3u);
        EXPECT_TRUE(s.contains(5));
        EXPECT_FALSE(s.contains(4));

        const auto nb = s.neighbors(5);
        EXPECT_TRUE(nb.present);
        ASSERT_TRUE(nb.hasPred);
        EXPECT_EQ(nb.pred, 3u);
        ASSERT_TRUE(nb.hasSucc);
        EXPECT_EQ(nb.succ, 9u);

        EXPECT_TRUE(s.erase(5));
        EXPECT_FALSE(s.erase(5));
        EXPECT_FALSE(s.contains(5));
        EXPECT_EQ(s.size(), 2u);
        s.checkInvariants();
    });
}

TEST(OrderedSet, NeighborsOnEmptyAndSingleton)
{
    underEveryBudget([](SpillPool &pool) {
        Set s;
        s.attach(pool);
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
    });
}

TEST(OrderedSet, PredecessorSuccessorAreStrict)
{
    underEveryBudget([](SpillPool &pool) {
        Set s;
        s.attach(pool);
        for (std::size_t k : {10u, 20u, 30u})
            s.insert(k);
        std::size_t out = 0;
        EXPECT_TRUE(s.predecessor(20, out));
        EXPECT_EQ(out, 10u); // strictly less, not the key itself
        EXPECT_TRUE(s.successor(20, out));
        EXPECT_EQ(out, 30u);
        EXPECT_FALSE(s.predecessor(10, out));
        EXPECT_FALSE(s.successor(30, out));
    });
}

TEST(OrderedSet, RangeVisitIsExclusiveBothEnds)
{
    underEveryBudget([](SpillPool &pool) {
        Set s;
        s.attach(pool);
        for (std::size_t k = 0; k < 10; ++k)
            s.insert(k * 10);
        std::vector<std::size_t> seen;
        s.forEachInRange(20, 60,
                         [&](std::size_t k) { seen.push_back(k); });
        EXPECT_EQ(seen, (std::vector<std::size_t>{30, 40, 50}));
    });
}

TEST(OrderedSet, SplitsAndDrainsChunks)
{
    // 3000 keys force many page splits; erasing every key afterwards
    // must drain every page — and hand every byte back to the pool —
    // without tripping invariants.
    underEveryBudget([](SpillPool &pool) {
        Set s;
        s.attach(pool);
        for (std::size_t k = 0; k < 3000; ++k)
            s.insert((k * 2654435761u) % 100000);
        s.checkInvariants();
        EXPECT_GT(s.pages(), 4u);
        const std::size_t n = s.size();
        std::vector<std::size_t> keys;
        s.forEach([&](std::size_t k) { keys.push_back(k); });
        ASSERT_EQ(keys.size(), n);
        EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        for (std::size_t k : keys)
            EXPECT_TRUE(s.erase(k));
        EXPECT_TRUE(s.empty());
        EXPECT_EQ(s.pages(), 0u);
        EXPECT_EQ(pool.residentBytes(), 0u);
        s.checkInvariants();
    });
}

TEST(OrderedSet, MappedFormStoresValues)
{
    underEveryBudget([](SpillPool &pool) {
        SpillableOrderedSet<std::size_t, std::uint32_t> m;
        m.attach(pool);
        EXPECT_TRUE(m.insert(7, 70u));
        EXPECT_TRUE(m.insert(3, 30u));
        EXPECT_FALSE(m.insert(7, 99u)); // duplicate keeps old value
        ASSERT_NE(m.find(7), nullptr);
        EXPECT_EQ(*m.find(7), 70u);
        EXPECT_EQ(m.find(5), nullptr);

        std::vector<std::pair<std::size_t, std::uint32_t>> seen;
        m.forEach([&](std::size_t k, std::uint32_t v) {
            seen.emplace_back(k, v);
        });
        ASSERT_EQ(seen.size(), 2u);
        EXPECT_EQ(seen[0],
                  (std::pair<std::size_t, std::uint32_t>{3, 30}));
        EXPECT_EQ(seen[1],
                  (std::pair<std::size_t, std::uint32_t>{7, 70}));

        std::uint32_t out = 0;
        EXPECT_TRUE(m.take(7, out)); // find and erase in one locate
        EXPECT_EQ(out, 70u);
        EXPECT_FALSE(m.take(7, out));
        EXPECT_EQ(m.find(7), nullptr);
        EXPECT_EQ(m.size(), 1u);
        m.checkInvariants();
    });
}

TEST(OrderedSet, RandomizedDifferentialVsStdSet)
{
    underEveryBudget([](SpillPool &pool) {
        Set s;
        s.attach(pool);
        std::set<std::size_t> model;
        std::mt19937_64 rng(99);
        const std::size_t universe = 4096;

        for (int step = 0; step < 30000; ++step) {
            const std::size_t k = rng() % universe;
            switch (rng() % 4) {
              case 0:
              case 1: // bias toward growth so pages split
                ASSERT_EQ(s.insert(k), model.insert(k).second);
                break;
              case 2:
                ASSERT_EQ(s.erase(k), model.erase(k) > 0);
                break;
              default: {
                ASSERT_EQ(s.contains(k), model.count(k) > 0);
                const auto nb = s.neighbors(k);
                ASSERT_EQ(nb.present, model.count(k) > 0);
                expectNeighborsOf(nb, model, k);
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
            ASSERT_EQ(got, want)
                << "range (" << lo << ", " << hi << ")";
        }
    });
}

TEST(OrderedSet, RandomizedDifferentialVsStdMap)
{
    underEveryBudget([](SpillPool &pool) {
        SpillableOrderedSet<std::size_t, std::uint64_t> m;
        m.attach(pool);
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
        m.forEachInRange(100, 1900,
                         [&](std::size_t k, std::uint64_t v) {
                             got.emplace_back(k, v);
                         });
        for (auto it = model.upper_bound(100);
             it != model.end() && it->first < 1900; ++it)
            want.emplace_back(it->first, it->second);
        EXPECT_EQ(got, want);
    });
}

TEST(OrderedSet, StructKeyPayloadRoundTrips)
{
    // Keys ordered by index alone, each carrying a payload (OPG's
    // timed deterministic misses): every neighbor and range answer
    // must hand back the payload stored with that index, across page
    // splits and drains. This is the unbounded-pool input;
    // SpillableOrderedSet.StructKeyPayloadRoundTripsThroughSpill is
    // the one-page one.
    SpillPool pool(SIZE_MAX);
    SpillableOrderedSet<test::PayloadKey> s;
    s.attach(pool);
    test::expectPayloadsRoundTrip(s, 21, 30000, std::size_t(1) << 13);
    EXPECT_EQ(s.faults(), 0u);
    EXPECT_EQ(pool.evictions(), 0u);
}

TEST(SpillableOrderedSet, BasicSetOperations)
{
    SpillPool pool(1 << 20);
    Set s;
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
 * issues must answer exactly what a std::set answers, while pages
 * continuously spill and refault.
 */
TEST(SpillableOrderedSet, MatchesOrderedSetUnderTightBudget)
{
    // ~4 pages resident out of hundreds: constant page churn.
    SpillPool pool(16 * 1024);
    Set spilled;
    spilled.attach(pool);
    std::set<std::size_t> model;

    std::mt19937_64 rng(1234);
    std::uniform_int_distribution<std::size_t> keyDist(0, 1 << 20);
    for (int step = 0; step < 60000; ++step) {
        const std::size_t k = keyDist(rng);
        switch (rng() % 4) {
          case 0:
            EXPECT_EQ(spilled.insert(k), model.insert(k).second);
            break;
          case 1:
            EXPECT_EQ(spilled.erase(k), model.erase(k) > 0);
            break;
          case 2: {
            const auto got = spilled.neighbors(k);
            EXPECT_EQ(got.present, model.count(k) > 0);
            expectNeighborsOf(got, model, k);
            break;
          }
          default:
            EXPECT_EQ(spilled.contains(k), model.count(k) > 0);
            break;
        }
    }
    EXPECT_EQ(spilled.size(), model.size());
    EXPECT_GT(spilled.faults(), 0u);
    EXPECT_GT(pool.evictions(), 0u);
    spilled.checkInvariants();

    // Full-order sweep: forEach visits the same keys ascending.
    std::vector<std::size_t> got;
    spilled.forEach([&](std::size_t k) { got.push_back(k); });
    EXPECT_EQ(got, std::vector<std::size_t>(model.begin(), model.end()));
}

TEST(SpillableOrderedSet, WithNeighborsFormsMatchModel)
{
    SpillPool pool(8 * 1024);
    Set spilled;
    spilled.attach(pool);
    std::set<std::size_t> model;

    std::mt19937_64 rng(77);
    std::uniform_int_distribution<std::size_t> keyDist(0, 1 << 16);
    for (int step = 0; step < 20000; ++step) {
        const std::size_t k = keyDist(rng);
        Set::Neighbors got;
        // Both forms report k's strict neighbors, whether or not k
        // was present; check them before the model changes.
        if (rng() % 2) {
            const bool fresh = spilled.insertWithNeighbors(k, got);
            expectNeighborsOf(got, model, k);
            EXPECT_EQ(fresh, model.insert(k).second);
        } else {
            const bool was = spilled.eraseWithNeighbors(k, got);
            expectNeighborsOf(got, model, k);
            EXPECT_EQ(was, model.erase(k) > 0);
        }
    }
    EXPECT_EQ(spilled.size(), model.size());
    spilled.checkInvariants();
}

TEST(SpillableOrderedSet, RangeScansMatchUnderSpill)
{
    SpillPool pool(8 * 1024);
    SpillableOrderedSet<std::size_t, std::uint32_t> spilled;
    spilled.attach(pool);
    std::map<std::size_t, std::uint32_t> model;

    std::mt19937_64 rng(9);
    std::uniform_int_distribution<std::size_t> keyDist(0, 1 << 14);
    for (int i = 0; i < 8000; ++i) {
        const std::size_t k = keyDist(rng);
        const auto v = static_cast<std::uint32_t>(k * 2 + 1);
        spilled.insert(k, v);
        model.emplace(k, v);
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
        for (auto it = model.upper_bound(lo);
             it != model.end() && it->first < hi; ++it)
            want.emplace_back(*it);
        EXPECT_EQ(got, want);
    }
}

TEST(SpillableOrderedSet, EraseAtMinDrainsLikeOpgRetirement)
{
    // OPG's deterministic-miss pattern: bulk ascending seeding, then
    // erase-at-minimum retirement mixed with mid-range churn.
    SpillPool pool(4 * 1024);
    Set s;
    s.attach(pool);
    const std::size_t n = 5000;
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_TRUE(s.insert(k));
    EXPECT_EQ(s.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
        Set::Neighbors nb;
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
    std::vector<Set> sets(16);
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
