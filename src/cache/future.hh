/**
 * @file
 * Block-granular access streams and off-line future knowledge.
 *
 * The storage cache operates on single blocks, so multi-block trace
 * requests are expanded into per-block accesses. FutureKnowledge
 * precomputes, in O(n), for every access the index of the *next*
 * access to the same block and whether the access is the first ever
 * to its block (a cold miss), answering both by random access. The
 * exhaustive optimum (core/optimal.hh) and the reference oracles read
 * it; the fast oracles (Belady, OPG) consume the same knowledge in
 * order from a WindowedFuture (cache/future_window.hh).
 */

#ifndef PACACHE_CACHE_FUTURE_HH
#define PACACHE_CACHE_FUTURE_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"
#include "trace/trace.hh"

namespace pacache
{

/** One block-granular cache access. */
struct BlockAccess
{
    Time time = 0;
    BlockId block;
    bool write = false;
    std::size_t traceIndex = 0; //!< index of the originating request
};

/**
 * Expand a trace into block-granular accesses. The output vector is
 * reserved exactly from the trace's cached block-access count (which
 * ultimately derives from the TraceSource size hints), so expansion
 * never reallocates.
 */
std::vector<BlockAccess> expandTrace(const Trace &trace);

/**
 * Next-use and cold-miss precomputation for off-line policies.
 *
 * Stored as structure-of-arrays: the next-use chain and the
 * cold-miss bits each live in their own dense array.
 */
class FutureKnowledge
{
  public:
    /** Sentinel: the block is never accessed again. */
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

    /** Build from an expanded access stream. */
    static FutureKnowledge build(const std::vector<BlockAccess> &accesses);

    /**
     * Retained original build, used by the reference policies: a
     * node-based std::unordered_map keyed by the full BlockId. Same
     * output as build() — the reference replay path keeps the whole
     * legacy stack behind the policy interface so old-vs-new
     * comparisons time the stacks as they actually were.
     */
    static FutureKnowledge
    buildRef(const std::vector<BlockAccess> &accesses);

    /** Index of the next access to the same block (kNever if none). */
    std::size_t nextUse(std::size_t idx) const { return next[idx]; }

    /** True if access idx is the first ever to its block. */
    bool isFirstReference(std::size_t idx) const { return first[idx]; }

    std::size_t size() const { return next.size(); }

  private:
    std::vector<std::size_t> next;
    std::vector<bool> first;
};

} // namespace pacache

#endif // PACACHE_CACHE_FUTURE_HH
