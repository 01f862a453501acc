/**
 * @file
 * Micro-benchmarks: trace ingestion throughput (google-benchmark) —
 * text parsing vs the buffered .pct reader vs the zero-copy mmap
 * .pct reader, in records per second over the same workload.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/text_source.hh"
#include "tracefmt/trace_source.hh"
#include "util/temp_file.hh"

using namespace pacache;

namespace
{

constexpr uint64_t kRecords = 200000;

/** One shared workload, written once per process in both formats. */
class TraceFiles
{
  public:
    TraceFiles()
    {
        SyntheticParams p;
        p.numRequests = kRecords;
        p.numDisks = 8;
        p.seed = 42;
        const Trace t = generateSynthetic(p);

        writeTraceFile(txt, t);
        tracefmt::MemorySource src(t);
        tracefmt::writePct(pct, src);
    }

    // Created race-free (mkstemps), removed at process exit.
    TempFile txtFile{"micro_trace_io", ".trace.txt"};
    TempFile pctFile{"micro_trace_io", ".trace.pct"};
    const std::string &txt = txtFile.path();
    const std::string &pct = pctFile.path();
};

const TraceFiles &
files()
{
    static TraceFiles f;
    return f;
}

/** Drain a source to the end, defeating dead-code elimination. */
uint64_t
drain(tracefmt::TraceSource &src)
{
    TraceRecord rec;
    uint64_t sum = 0;
    while (src.next(rec))
        sum += rec.block + rec.numBlocks;
    benchmark::DoNotOptimize(sum);
    return sum;
}

void
BM_TextParse(benchmark::State &state)
{
    for (auto _ : state) {
        tracefmt::TextSource src(files().txt);
        drain(src);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRecords));
}

void
BM_PctBuffered(benchmark::State &state)
{
    tracefmt::PctReadOptions opts;
    opts.verifyChecksum = false;
    for (auto _ : state) {
        tracefmt::PctBufferedSource src(files().pct, opts);
        drain(src);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRecords));
}

void
BM_PctMmap(benchmark::State &state)
{
    tracefmt::PctReadOptions opts;
    opts.verifyChecksum = false;
    for (auto _ : state) {
        tracefmt::PctMmapSource src(files().pct, opts);
        drain(src);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRecords));
}

void
BM_PctMmapVerified(benchmark::State &state)
{
    for (auto _ : state) {
        tracefmt::PctMmapSource src(files().pct); // checksum pass on open
        drain(src);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRecords));
}

/**
 * The mmap reader without the paging hints (no MADV_SEQUENTIAL /
 * WILLNEED prefetch ahead, no MADV_DONTNEED release behind), against
 * BM_PctMmap which has both on. On a warm page cache the hinted
 * path's win is small-to-none — the hints exist to bound the
 * resident set on files larger than RAM, not to speed up re-reads —
 * so this pair mostly guards against the hint syscalls costing
 * measurable throughput.
 */
void
BM_PctMmapNoHints(benchmark::State &state)
{
    tracefmt::PctReadOptions opts;
    opts.verifyChecksum = false;
    opts.releaseBehind = false;
    opts.prefetchAhead = false;
    for (auto _ : state) {
        tracefmt::PctMmapSource src(files().pct, opts);
        drain(src);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kRecords));
}

BENCHMARK(BM_TextParse);
BENCHMARK(BM_PctBuffered);
BENCHMARK(BM_PctMmap);
BENCHMARK(BM_PctMmapVerified);
BENCHMARK(BM_PctMmapNoHints);

} // namespace

BENCHMARK_MAIN();
