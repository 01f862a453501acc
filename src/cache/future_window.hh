/**
 * @file
 * Out-of-core future knowledge for off-line policies.
 *
 * FutureKnowledge (cache/future.hh) materializes the whole expanded
 * access stream plus its trace-length next-use arrays — fine for RAM-sized
 * traces, impossible for billion-request ones. WindowedFuture
 * computes the same next-use chain *exactly* without ever holding
 * the trace in memory:
 *
 *  1. A backward pass walks the mmap'd .pct file chunk by chunk in
 *     reverse order. A carry map (block -> earliest access seen so
 *     far in the processed suffix) crosses every chunk boundary, so
 *     the stitching is exact for any look-ahead: each access's next
 *     use is the global one, not a per-chunk approximation. Each
 *     chunk emits fixed 16-byte sidecar entries (next index + next
 *     time) into an unlinked temporary file via pwrite, then the
 *     chunk's pages are released (MADV_DONTNEED).
 *
 *  2. Forward replay consumes sidecar entries strictly in order
 *     through a bounded window buffer refilled by pread, so peak RSS
 *     is bounded by max(chunk, window, one entry per unique block) —
 *     never by the trace length.
 *
 * Every sidecar entry carries its successor's arrival time next to
 * its index, and every cold seed carries its own, so a consumer that
 * prices idle periods (OPG) receives each future index's time at the
 * moment it learns the index and keeps the two together in its own
 * state. The future itself answers no time queries and holds no
 * per-block state after the build.
 */

#ifndef PACACHE_CACHE_FUTURE_WINDOW_HH
#define PACACHE_CACHE_FUTURE_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pacache
{

/** Streaming (bounded-memory) next-use knowledge over a .pct file. */
class WindowedFuture
{
  public:
    /** Sentinel: the block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
    /** Consumers must stream accesses instead of materializing. */
    static constexpr bool kStreaming = true;

    struct Options
    {
        /** Sidecar read-buffer entries (the look-ahead window). */
        std::size_t windowEntries = std::size_t(1) << 20;
        /** Backward-pass chunk size in block accesses. */
        std::size_t chunkAccesses = std::size_t(1) << 22;
        /**
         * No effect: successor times always travel with nextUse().
         * Kept so existing option-setting callers still compile.
         */
        bool pinTimes = true;
        /**
         * Re-verify the .pct checksum while building. Off by
         * default: the replay source already verified the same file
         * on open, and the backward pass decodes (and validates)
         * every record anyway.
         */
        bool verifyChecksum = false;
        /** No effect, like pinTimes; the future has no pinned map. */
        std::size_t pinnedBudgetBytes = 0;
    };

    /** A block's first-ever access: seeds OPG's deterministic set. */
    struct ColdSeed
    {
        DiskId disk;
        std::size_t idx;
        Time time; //!< arrival time of access idx
    };

    WindowedFuture() = default;
    /** Run the backward pass over @p pct_path (fatal on I/O error). */
    explicit WindowedFuture(const std::string &pct_path);
    WindowedFuture(const std::string &pct_path, Options opts);
    ~WindowedFuture();

    WindowedFuture(const WindowedFuture &) = delete;
    WindowedFuture &operator=(const WindowedFuture &) = delete;
    WindowedFuture(WindowedFuture &&other) noexcept;
    WindowedFuture &operator=(WindowedFuture &&other) noexcept;

    bool built() const { return ready; }
    /** Total block-granular accesses in the trace. */
    std::size_t size() const { return total; }
    /** Max disk id + 1 (at least 1). */
    std::size_t numDisks() const { return diskCount; }
    /** Last arrival time (the .pct header's endTime). */
    Time endTime() const { return lastTime; }

    /**
     * Index of the next access to the same block (kNever if none).
     * Consuming: must be called exactly once per index, in strictly
     * increasing order — it advances the sidecar window.
     */
    std::size_t
    nextUse(std::size_t idx)
    {
        Time ignored = 0;
        return nextUse(idx, ignored);
    }

    /**
     * nextUse() that also reports the next access's arrival time in
     * @p time (left 0 when the block is never accessed again).
     */
    std::size_t nextUse(std::size_t idx, Time &time);

    /** First-reference accesses, ascending by index. */
    const std::vector<ColdSeed> &coldSeeds() const { return cold; }

    /** Move the cold seeds out, leaving none behind. */
    std::vector<ColdSeed> takeColdSeeds() { return std::move(cold); }

  private:
    /** Sidecar record: next access index (~0 = never) and its time. */
    struct SideEntry
    {
        std::uint64_t next;
        double time;
    };
    static constexpr std::uint64_t kNever64 = ~std::uint64_t{0};

    void build(const std::string &pct_path);
    void refill(std::size_t from);
    void closeFd();

    Options opts;
    int sidecarFd = -1;
    std::size_t total = 0;
    std::size_t diskCount = 1;
    Time lastTime = 0;
    bool ready = false;

    std::vector<ColdSeed> cold;

    std::vector<SideEntry> window;
    std::size_t winBase = 0;
    std::size_t winCount = 0;
    std::size_t cursor = 0; //!< next index nextUse() will accept
};

} // namespace pacache

#endif // PACACHE_CACHE_FUTURE_WINDOW_HH
