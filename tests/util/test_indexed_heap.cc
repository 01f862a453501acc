/**
 * @file
 * IndexedHeap unit tests plus a randomized differential check against
 * a std::set model: every operation mix a caller can issue (push,
 * update up/down, erase by handle, pop) must keep the heap's top and
 * size identical to the model's minimum, with validate() passing
 * throughout, both on a small heap and at OPG's scale (32768 live
 * 24-byte keys under update-heavy churn).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/indexed_heap.hh"

namespace pacache
{
namespace
{

TEST(IndexedHeap, PopsInAscendingOrder)
{
    IndexedHeap<int> heap;
    std::vector<int> keys{9, 3, 7, 1, 8, 2, 6, 0, 5, 4};
    for (int k : keys)
        heap.push(k);
    ASSERT_EQ(heap.size(), keys.size());

    std::vector<int> popped;
    while (!heap.empty()) {
        popped.push_back(heap.top());
        heap.pop();
    }
    EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
    EXPECT_EQ(popped.size(), keys.size());
}

TEST(IndexedHeap, HandlesStayStableAcrossChurn)
{
    IndexedHeap<int> heap;
    const auto h42 = heap.push(42);
    std::vector<IndexedHeap<int>::Handle> others;
    for (int k = 0; k < 100; ++k)
        others.push_back(heap.push(k));
    for (std::size_t i = 0; i < others.size(); i += 2)
        heap.erase(others[i]);
    heap.validate();
    EXPECT_EQ(heap.key(h42), 42);
}

TEST(IndexedHeap, UpdateMovesBothDirections)
{
    IndexedHeap<int> heap;
    heap.push(10);
    heap.push(20);
    const auto h = heap.push(30);

    heap.update(h, 5); // decrease: must become the new top
    heap.validate();
    EXPECT_EQ(heap.top(), 5);
    EXPECT_EQ(heap.topHandle(), h);

    heap.update(h, 25); // increase: must sink back down
    heap.validate();
    EXPECT_EQ(heap.top(), 10);
    EXPECT_EQ(heap.key(h), 25);
}

TEST(IndexedHeap, EraseOfNonTopKeepsOrder)
{
    IndexedHeap<int> heap;
    std::vector<IndexedHeap<int>::Handle> hs;
    for (int k = 0; k < 50; ++k)
        hs.push_back(heap.push(k));
    heap.erase(hs[25]);
    heap.erase(hs[49]);
    heap.erase(hs[0]);
    heap.validate();
    EXPECT_EQ(heap.size(), 47u);
    EXPECT_EQ(heap.top(), 1);
}

TEST(IndexedHeap, FreeListRecyclesSlots)
{
    IndexedHeap<int> heap;
    const auto a = heap.push(1);
    const auto b = heap.push(2);
    heap.erase(a);
    heap.erase(b);
    // LIFO free list: the most recently erased slot comes back first.
    EXPECT_EQ(heap.push(3), b);
    EXPECT_EQ(heap.push(4), a);
    heap.validate();
}

TEST(IndexedHeap, MaxHeapViaComparator)
{
    IndexedHeap<int, std::greater<int>> heap;
    for (int k : {3, 9, 1, 7})
        heap.push(k);
    EXPECT_EQ(heap.top(), 9);
    heap.pop();
    EXPECT_EQ(heap.top(), 7);
    heap.validate();
}

TEST(IndexedHeap, ClearThenReuse)
{
    IndexedHeap<int> heap;
    for (int k = 0; k < 10; ++k)
        heap.push(k);
    heap.clear();
    EXPECT_TRUE(heap.empty());
    heap.push(5);
    EXPECT_EQ(heap.top(), 5);
    heap.validate();
}

/**
 * OPG-shaped key: 24 bytes (a penalty, a next-use index and an id),
 * so heap entries are 32 bytes and a node's children span more than
 * one cache line.
 */
struct WideKey
{
    double penalty;
    std::uint64_t next;
    std::uint32_t uid;

    friend bool operator==(const WideKey &, const WideKey &) = default;
    friend auto operator<=>(const WideKey &, const WideKey &) = default;
};

std::uint32_t
uidOf(const std::pair<int, std::uint32_t> &e)
{
    return e.second;
}

std::uint32_t
uidOf(const WideKey &e)
{
    return e.uid;
}

/**
 * Drive an IndexedHeap and a std::set model of (key, uid) pairs
 * through one random operation stream and check them against each
 * other: the key behind every handle touched, and after each step
 * the top, the size and validate(). The stream first grows the heap
 * to @p live_target entries, then runs @p churn_steps of the given
 * mix (percentages of push / update / erase; pops take the rest).
 */
template <typename Elem, typename MakeKey>
void
differentialVsSet(std::size_t live_target, int churn_steps,
                  int push_pct, int update_pct, int erase_pct,
                  std::uint64_t seed, MakeKey make_key)
{
    using Handle = typename IndexedHeap<Elem>::Handle;
    struct Live
    {
        std::uint32_t uid;
        Handle handle;
    };
    IndexedHeap<Elem> heap;
    std::set<Elem> model;
    std::vector<Live> live; // for O(1) random picks
    std::unordered_map<std::uint32_t, std::size_t> slotOf; // uid -> live
    std::uint32_t nextUid = 0;
    std::mt19937_64 rng(seed);

    auto forget = [&](std::uint32_t uid) {
        const std::size_t i = slotOf[uid];
        live[i] = live.back();
        slotOf[live[i].uid] = i;
        live.pop_back();
        slotOf.erase(uid);
    };
    auto push = [&]() {
        const Elem e = make_key(rng, nextUid++);
        const Handle h = heap.push(e);
        slotOf[uidOf(e)] = live.size();
        live.push_back(Live{uidOf(e), h});
        model.insert(e);
        ASSERT_EQ(heap.key(h), e);
    };
    auto check = [&]() {
        ASSERT_EQ(heap.size(), model.size());
        if (!heap.empty()) {
            ASSERT_EQ(heap.top(), *model.begin());
            ASSERT_EQ(heap.key(heap.topHandle()), *model.begin());
        }
        heap.validate();
    };

    const int total = static_cast<int>(live_target) + churn_steps;
    for (int step = 0; step < total; ++step) {
        const int op = static_cast<int>(rng() % 100);
        if (step < static_cast<int>(live_target) || live.empty() ||
            op < push_pct) {
            push();
        } else if (op < push_pct + update_pct) {
            const Live pick = live[rng() % live.size()];
            const Elem old = heap.key(pick.handle);
            const Elem fresh = make_key(rng, pick.uid);
            heap.update(pick.handle, fresh);
            model.erase(old);
            model.insert(fresh);
            ASSERT_EQ(heap.key(pick.handle), fresh);
        } else if (op < push_pct + update_pct + erase_pct) {
            const Live pick = live[rng() % live.size()];
            model.erase(heap.key(pick.handle));
            heap.erase(pick.handle);
            forget(pick.uid);
        } else {
            const Elem top = heap.top();
            ASSERT_EQ(top, *model.begin());
            forget(uidOf(top));
            model.erase(model.begin());
            heap.pop();
        }
        // validate() is O(n): at full size, check it on every churn
        // step but only every 512th push of the initial growth.
        if (step >= static_cast<int>(live_target) || step % 512 == 0)
            check();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    check();
    // Every live handle still resolves to its model key.
    std::set<Elem> viaHandles;
    for (const Live &l : live)
        viaHandles.insert(heap.key(l.handle));
    ASSERT_EQ(viaHandles, model);

    // Drain: full pop order must match the model's sorted order.
    while (!model.empty()) {
        ASSERT_EQ(heap.top(), *model.begin());
        model.erase(model.begin());
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeap, RandomizedDifferentialVsSet)
{
    // A small heap under the full operation mix.
    differentialVsSet<std::pair<int, std::uint32_t>>(
        0, 20000, 40, 20, 20, 1234,
        [](std::mt19937_64 &rng, std::uint32_t uid) {
            return std::pair<int, std::uint32_t>{
                static_cast<int>(rng() % 500), uid};
        });
    // OPG's scale: 32768 live entries with wide keys under
    // update-heavy churn (repricing bursts), few duplicates of the
    // leading key so ties fall through to the later fields.
    differentialVsSet<WideKey>(
        32768, 3000, 5, 80, 5, 99,
        [](std::mt19937_64 &rng, std::uint32_t uid) {
            return WideKey{static_cast<double>(rng() % 64) * 0.25,
                           rng() % 100000, uid};
        });
}

} // namespace
} // namespace pacache
