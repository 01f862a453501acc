/**
 * @file
 * A differential check for ordered sets keyed by a struct that is
 * ordered by an index and carries a payload — the shape of OPG's
 * timed deterministic-miss keys. Every payload a query reports must
 * be the one stored with that index, checked against a std::map.
 */

#ifndef PACACHE_TESTS_SUPPORT_PAYLOAD_KEY_HH
#define PACACHE_TESTS_SUPPORT_PAYLOAD_KEY_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace pacache::test
{

/** Ordered and compared by idx alone; payload rides along. */
struct PayloadKey
{
    std::size_t idx;
    double payload;

    bool operator<(const PayloadKey &o) const { return idx < o.idx; }
    bool operator==(const PayloadKey &o) const { return idx == o.idx; }
};

/** A probe for @p idx whose payload no stored key ever has. */
inline PayloadKey
probe(std::size_t idx)
{
    return PayloadKey{idx, -1.0};
}

using PayloadRef = std::map<std::size_t, double>;

/** Compare reported neighbors with @p ref's around @p idx. */
template <typename Neighbors>
void
expectNeighbors(const Neighbors &nb, const PayloadRef &ref,
                std::size_t idx)
{
    const auto succ = ref.upper_bound(idx);
    const auto at = ref.lower_bound(idx);
    ASSERT_EQ(nb.hasPred, at != ref.begin()) << "idx " << idx;
    if (nb.hasPred) {
        const auto pred = std::prev(at);
        EXPECT_EQ(nb.pred.idx, pred->first);
        EXPECT_EQ(nb.pred.payload, pred->second) << "pred of " << idx;
    }
    ASSERT_EQ(nb.hasSucc, succ != ref.end()) << "idx " << idx;
    if (nb.hasSucc) {
        EXPECT_EQ(nb.succ.idx, succ->first);
        EXPECT_EQ(nb.succ.payload, succ->second) << "succ of " << idx;
    }
}

/**
 * Random insertWithNeighbors / eraseWithNeighbors / neighbors /
 * forEachInRange traffic on @p set (a set of PayloadKeys), each
 * answer checked against a std::map of idx -> payload. Inserting an
 * index that is present must keep the stored payload.
 */
template <typename Set>
void
expectPayloadsRoundTrip(Set &set, std::uint64_t seed, int steps,
                        std::size_t key_range)
{
    using Entries = std::vector<std::pair<std::size_t, double>>;
    PayloadRef ref;
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> keyDist(0, key_range);
    for (int step = 0; step < steps; ++step) {
        const std::size_t k = keyDist(rng);
        typename Set::Neighbors nb;
        switch (rng() % 4) {
          case 0:
          case 1: {
            // A payload unique to this step, so a stale or swapped
            // one cannot pass by coincidence.
            const double payload = step + 0.25;
            const bool fresh =
                set.insertWithNeighbors(PayloadKey{k, payload}, nb);
            EXPECT_EQ(fresh, ref.emplace(k, payload).second);
            expectNeighbors(nb, ref, k);
            break;
          }
          case 2:
            EXPECT_EQ(set.eraseWithNeighbors(probe(k), nb),
                      ref.count(k) == 1);
            expectNeighbors(nb, ref, k);
            ref.erase(k);
            break;
          default:
            nb = set.neighbors(probe(k));
            EXPECT_EQ(nb.present, ref.count(k) == 1);
            expectNeighbors(nb, ref, k);
            break;
        }
        if (step % 64 == 0) {
            std::size_t lo = keyDist(rng);
            std::size_t hi = keyDist(rng);
            if (hi < lo)
                std::swap(lo, hi);
            Entries got;
            set.forEachInRange(probe(lo), probe(hi),
                               [&](const PayloadKey &x) {
                                   got.emplace_back(x.idx, x.payload);
                               });
            Entries want;
            for (auto it = ref.upper_bound(lo);
                 it != ref.end() && it->first < hi; ++it)
                want.emplace_back(*it);
            EXPECT_EQ(got, want) << "range (" << lo << ", " << hi << ")";
        }
        ASSERT_EQ(set.size(), ref.size());
    }
    set.checkInvariants();
    Entries all;
    set.forEach([&](const PayloadKey &x) {
        all.emplace_back(x.idx, x.payload);
    });
    EXPECT_EQ(all, Entries(ref.begin(), ref.end()));
}

} // namespace pacache::test

#endif // PACACHE_TESTS_SUPPORT_PAYLOAD_KEY_HH
