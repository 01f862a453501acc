/**
 * @file
 * Streamed future knowledge for the off-line policies (OPG, Belady).
 *
 * WindowedFuture is the one future type the fast oracles read: for
 * every access, in consumption order, the index of the next access
 * to the same block and that access's arrival time, plus every
 * block's first (cold) reference with its own time. It has two
 * builders running the same backward pass (a carry map holding each
 * block's earliest access in the processed suffix) and producing the
 * same 16-byte {next, time} entries and timed cold seeds:
 *
 *  - in memory, over an expanded access vector (prepare()): the
 *    whole stream's entries stay in the window, so nothing is ever
 *    refilled and no file is touched;
 *
 *  - out of core, over a .pct file, for traces larger than RAM. The
 *    backward pass walks the mmap'd file chunk by chunk in reverse
 *    order; the carry map crosses every chunk boundary, so each
 *    access's next use is the global one for any look-ahead, not a
 *    per-chunk approximation. Each chunk's entries go to an unlinked
 *    sidecar file via pwrite and the chunk's pages are released
 *    (MADV_DONTNEED). Forward replay reads the sidecar through a
 *    bounded window refilled by pread, so peak RSS is bounded by
 *    max(chunk, window, one entry per unique block), never by the
 *    trace length.
 *
 * Consumption is strictly in order, once per index, whichever
 * builder ran. A consumer that prices idle periods (OPG) receives
 * each future index's time at the moment it learns the index and
 * keeps the two together in its own state; the future answers no
 * time queries and holds no per-block state after the build.
 * FutureKnowledge (cache/future.hh) is the random-access
 * next-use table of the exhaustive optimum and the reference oracles.
 */

#ifndef PACACHE_CACHE_FUTURE_WINDOW_HH
#define PACACHE_CACHE_FUTURE_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/future.hh"
#include "sim/types.hh"

namespace pacache
{

/** In-order next-use knowledge, built in memory or over a .pct file. */
class WindowedFuture
{
  public:
    /** Sentinel: the block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

    struct Options
    {
        /** Sidecar read-buffer entries (the look-ahead window). */
        std::size_t windowEntries = std::size_t(1) << 20;
        /** Backward-pass chunk size in block accesses. */
        std::size_t chunkAccesses = std::size_t(1) << 22;
        /**
         * No effect: successor times always travel with nextUse().
         * Kept only because the frozen benchmark harness
         * (perfbench/src/sharded_wtdu.cc) sets it; ROADMAP item 2.
         */
        bool pinTimes = true;
        /**
         * Re-verify the .pct checksum while building. Off by
         * default: the replay source already verified the same file
         * on open, and the backward pass decodes (and validates)
         * every record anyway.
         */
        bool verifyChecksum = false;
        /** No effect and kept for the same harness, like pinTimes. */
        std::size_t pinnedBudgetBytes = 0;
    };

    /**
     * A block's first-ever access: seeds OPG's deterministic set.
     * 16 bytes, as one seed is kept per unique block: disk ids fit
     * 16 bits (the packed-key guard) and indices 48.
     */
    struct ColdSeed
    {
        std::uint64_t idx : 48;
        std::uint64_t disk : 16;
        Time time; //!< arrival time of access idx
    };

    WindowedFuture() = default;
    /**
     * Run the backward pass over @p accesses, keeping every entry in
     * the window. The vector is not retained.
     */
    explicit WindowedFuture(const std::vector<BlockAccess> &accesses);
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
    /** Last arrival time (the .pct header's endTime in that build). */
    Time endTime() const { return lastTime; }

    /**
     * Index of the next access to the same block (kNever if none).
     * Consuming: must be called exactly once per index, in strictly
     * increasing order — it advances the window.
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
    /** Stream entry: next access index (~0 = never) and its time. */
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
