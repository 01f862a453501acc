/**
 * @file
 * IndexedHeap — an addressable d-ary (4-ary) binary-comparison heap
 * for the off-line oracle hot paths (OPG's penalty order, Belady's
 * next-use order).
 *
 * Design, chosen for the access pattern of oracle replay (one victim
 * pop per miss, plus a burst of key updates every time a
 * deterministic miss enters or leaves a gap):
 *
 *  - push() returns a stable Handle that survives every subsequent
 *    operation until that element is erased; callers store the handle
 *    in their block index and get O(log n) update-key without the
 *    erase+insert round trip (and double rebalance) a std::set
 *    forces;
 *  - entries are stored inline in heap order as {key, handle} pairs
 *    (the EventQueue::Entry layout), so a sift comparison reads keys
 *    straight out of the heap array: a node's four children sit
 *    side by side (128 bytes for OPG's 32-byte entries, so two or
 *    three cache lines, read in sequence) and the only scattered
 *    access per level is the write of the moved entry's position
 *    back to its handle;
 *  - 4-ary layout: the tree is half as deep as a binary heap, which
 *    is where a heap beats a red-black tree on wide fan-out
 *    workloads;
 *  - storage is two flat vectors (heap entries + per-handle position),
 *    zero per-node allocation; erased handles are threaded onto a
 *    free list through their position field, so steady-state churn
 *    never allocates (the event-queue slab pattern).
 *
 * The comparator orders the *minimum* to the top. Keys need not be
 * unique for correctness, but deterministic victim selection requires
 * the comparator to induce a total order (callers embed the block id
 * in the key, exactly like the std::set implementations replaced).
 */

#ifndef PACACHE_UTIL_INDEXED_HEAP_HH
#define PACACHE_UTIL_INDEXED_HEAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace pacache
{

/** Addressable 4-ary min-heap; see the file comment for the contract. */
template <typename Key, typename Compare = std::less<Key>>
class IndexedHeap
{
  public:
    using Handle = std::uint32_t;

    explicit IndexedHeap(Compare cmp = Compare{}) : less(std::move(cmp)) {}

    std::size_t size() const { return heap.size(); }
    bool empty() const { return heap.empty(); }

    void
    clear()
    {
        heap.clear();
        posOf.clear();
        freeHead = kNone;
    }

    void
    reserve(std::size_t n)
    {
        heap.reserve(n);
        posOf.reserve(n);
    }

    /** Insert a key; the returned handle is stable until erase/pop. */
    Handle
    push(Key key)
    {
        Handle h;
        if (freeHead != kNone) {
            h = freeHead;
            freeHead = posOf[h];
        } else {
            h = static_cast<Handle>(posOf.size());
            posOf.push_back(0);
        }
        const auto pos = static_cast<std::uint32_t>(heap.size());
        heap.push_back(Entry{std::move(key), h});
        siftUp(pos);
        return h;
    }

    /** The minimum key (heap must be non-empty). */
    const Key &
    top() const
    {
        PACACHE_ASSERT(!heap.empty(), "top() on empty IndexedHeap");
        return heap[0].key;
    }

    /** Handle of the minimum element (heap must be non-empty). */
    Handle
    topHandle() const
    {
        PACACHE_ASSERT(!heap.empty(), "topHandle() on empty IndexedHeap");
        return heap[0].handle;
    }

    /** Key currently stored under a live handle. */
    const Key &key(Handle h) const { return heap[posOf[h]].key; }

    /** Remove the minimum element. */
    void
    pop()
    {
        PACACHE_ASSERT(!heap.empty(), "pop() on empty IndexedHeap");
        erase(heap[0].handle);
    }

    /** Remove the element behind a live handle. */
    void
    erase(Handle h)
    {
        const std::uint32_t pos = posOf[h];
        if (pos + 1 < heap.size()) {
            heap[pos] = std::move(heap.back());
            heap.pop_back();
            if (!siftUp(pos))
                siftDown(pos);
        } else {
            heap.pop_back();
        }
        posOf[h] = freeHead; // thread onto the free list
        freeHead = h;
    }

    /** Replace the key behind a live handle and restore heap order. */
    void
    update(Handle h, Key key)
    {
        const std::uint32_t pos = posOf[h];
        heap[pos].key = std::move(key);
        if (!siftUp(pos))
            siftDown(pos);
    }

    /**
     * Test hook: check position back-pointers and the heap property;
     * panics on violation. O(n).
     */
    void
    validate() const
    {
        for (std::uint32_t i = 0; i < heap.size(); ++i) {
            PACACHE_ASSERT(heap[i].handle < posOf.size() &&
                               posOf[heap[i].handle] == i,
                           "IndexedHeap position back-pointer drift");
            if (i > 0) {
                const std::uint32_t parent = (i - 1) / kArity;
                PACACHE_ASSERT(!less(heap[i].key, heap[parent].key),
                               "IndexedHeap property violated at index ",
                               i);
            }
        }
    }

  private:
    static constexpr std::uint32_t kArity = 4;
    static constexpr Handle kNone = static_cast<Handle>(-1);

    struct Entry
    {
        Key key;
        Handle handle;
    };

    /**
     * Move heap[pos] up to its place, recording every moved entry's
     * new position. @return true if it moved (siftDown can be
     * skipped).
     */
    bool
    siftUp(std::uint32_t pos)
    {
        const std::uint32_t start = pos;
        Entry e = std::move(heap[pos]);
        while (pos > 0) {
            const std::uint32_t parent = (pos - 1) / kArity;
            if (!less(e.key, heap[parent].key))
                break;
            heap[pos] = std::move(heap[parent]);
            posOf[heap[pos].handle] = pos;
            pos = parent;
        }
        posOf[e.handle] = pos;
        heap[pos] = std::move(e);
        return pos != start;
    }

    void
    siftDown(std::uint32_t pos)
    {
        const std::uint32_t n = static_cast<std::uint32_t>(heap.size());
        Entry e = std::move(heap[pos]);
        while (true) {
            const std::uint32_t first = pos * kArity + 1;
            if (first >= n)
                break;
            std::uint32_t best = first;
            const std::uint32_t end =
                first + kArity < n ? first + kArity : n;
            for (std::uint32_t c = first + 1; c < end; ++c) {
                if (less(heap[c].key, heap[best].key))
                    best = c;
            }
            if (!less(heap[best].key, e.key))
                break;
            heap[pos] = std::move(heap[best]);
            posOf[heap[pos].handle] = pos;
            pos = best;
        }
        posOf[e.handle] = pos;
        heap[pos] = std::move(e);
    }

    std::vector<Entry> heap; //!< heap order, root at 0
    /** Per handle: index into heap; next-free link when dead. */
    std::vector<std::uint32_t> posOf;
    Handle freeHead = kNone;
    [[no_unique_address]] Compare less{};
};

} // namespace pacache

#endif // PACACHE_UTIL_INDEXED_HEAP_HH
