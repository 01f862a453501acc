/**
 * @file
 * Workload scaled-sharded-wtdu: the out-of-core mode. A scaled OLTP
 * trace is streamed to .pct in set-up, then replayed with
 * runShardedExperiment() at 4 shards and one job per core: OPG on
 * the windowed oracle under a 64 MiB oracle budget, WTDU and a
 * 65536-block cache.
 *
 * The traced run replays the same partition serially through the
 * benchmark's own stack (demux, per-shard windowed oracle, timed
 * policy/DPM/decode, merge), so its layer times add up to its wall
 * time, and its merged result must equal runShardedExperiment's.
 */

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cache/future_window.hh"
#include "core/opg.hh"
#include "runner/shard_replay.hh"
#include "runner/thread_pool.hh"
#include "trace/stream_gen.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"

#include "common.hh"
#include "stack.hh"

namespace perfbench
{

using namespace pacache;

namespace
{

constexpr unsigned kShards = 4;
constexpr uint32_t kDisks = 64;

/** A .pct path under the scratch directory, unlinked on scope exit. */
class TempPct
{
  public:
    TempPct(const std::string &dir, const std::string &stem)
    {
        std::string templ = dir + "/" + stem + "-XXXXXX.pct";
        const int fd = ::mkstemps(templ.data(), 4);
        if (fd < 0)
            throw std::runtime_error("cannot create " + templ);
        ::close(fd);
        path = templ;
    }
    ~TempPct() { ::unlink(path.c_str()); }
    TempPct(const TempPct &) = delete;
    TempPct &operator=(const TempPct &) = delete;

    std::string path;
};

ExperimentConfig
shardedConfig(uint64_t requests, bool tiny)
{
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.dpm = DpmChoice::Practical;
    cfg.storage.writePolicy = WritePolicy::WriteThroughDeferredUpdate;
    cfg.cacheBlocks = tiny ? 4096 : 65536; // tiny still evicts
    cfg.oracleMemBudget = std::size_t(64) << 20;
    // Trace = 10x window, several backward-pass chunks: the oracle
    // must page its future knowledge.
    cfg.windowAccesses =
        static_cast<std::size_t>(std::max<uint64_t>(requests / 10, 1));
    cfg.oracleChunkAccesses =
        static_cast<std::size_t>(std::max<uint64_t>(requests / 8, 1024));
    return cfg;
}

/** The scaled OLTP generator, with timed record generation. */
class TimedGenerator : public StreamingSyntheticSource
{
  public:
    TimedGenerator(uint64_t seed, uint64_t requests, LayerClock &gen)
        : StreamingSyntheticSource(scaledOltpStreams(kDisks), 0.0, seed,
                                   requests),
          clk(gen)
    {
    }

    bool next(TraceRecord &out) override
    {
        Span s(clk);
        return StreamingSyntheticSource::next(out);
    }

  private:
    LayerClock &clk;
};

/**
 * A shard sub-trace as runShardedExperiment reads it (full disk-count
 * hint, no release-behind), with timed record decode.
 */
class ShardSource : public tracefmt::PctMmapSource
{
  public:
    ShardSource(const std::string &path, uint64_t disks,
                LayerClock &decode)
        : PctMmapSource(path, readOptions()), allDisks(disks),
          clk(decode)
    {
    }

    uint64_t numDisksHint() const override { return allDisks; }

    bool next(TraceRecord &out) override
    {
        Span s(clk);
        return PctMmapSource::next(out);
    }

  private:
    static tracefmt::PctReadOptions readOptions()
    {
        tracefmt::PctReadOptions opts;
        opts.releaseBehind = false;
        return opts;
    }

    uint64_t allDisks;
    LayerClock &clk;
};

/** Layer times of one traced pipeline run. */
struct Breakdown
{
    double wall = 0;
    double demux = 0;
    double decode = 0;
    double window = 0;
    double policy = 0;
    double dpm = 0;
    double storageSelf = 0;
    double merge = 0;
    uint64_t policyCalls = 0;
    uint64_t dpmCalls = 0;
    uint64_t recycles = 0;
    double imbalance = 0;
    ExperimentResult result;

    double layerSum() const
    {
        return demux + decode + window + policy + dpm + storageSelf +
               merge;
    }
};

/** The disk partition of runShardedExperiment(): sub-trace files. */
struct Partition
{
    std::size_t numDisks = 0;
    std::vector<std::unique_ptr<TempPct>> files;
    std::vector<double> records; //!< per shard
    /** Per-shard configuration, as runShardedExperiment derives it. */
    ExperimentConfig shardCfg;

    std::size_t capacity(std::size_t s) const
    {
        const std::size_t n = files.size();
        return shardCfg.cacheBlocks / n + (s < shardCfg.cacheBlocks % n);
    }
};

/** One streaming demux pass of @p pct by disk mod kShards. */
Partition
demux(const std::string &pct, const ExperimentConfig &config,
      const std::string &tmp_dir)
{
    Partition p;
    const tracefmt::PctInfo info = tracefmt::readPctInfo(pct);
    p.numDisks = std::max<std::size_t>(info.numDisks, 1);
    const unsigned shards = static_cast<unsigned>(
        std::min<std::size_t>(kShards, p.numDisks));
    p.shardCfg = config;
    p.shardCfg.storage.endTimeFloor =
        std::max(config.storage.endTimeFloor, info.endTime);
    p.shardCfg.oracleMemBudget =
        std::max<std::size_t>(config.oracleMemBudget / shards, 1);

    std::vector<std::unique_ptr<tracefmt::PctWriter>> writers;
    for (unsigned s = 0; s < shards; ++s) {
        p.files.push_back(std::make_unique<TempPct>(tmp_dir, "shard"));
        writers.push_back(
            std::make_unique<tracefmt::PctWriter>(p.files.back()->path));
    }
    p.records.assign(shards, 0.0);
    tracefmt::PctMmapSource src(pct);
    TraceRecord rec;
    uint64_t r = 0;
    while (src.next(rec)) {
        tracefmt::ensurePackable(rec, pct, r++);
        writers[rec.disk % shards]->append(rec);
        p.records[rec.disk % shards] += 1;
    }
    for (auto &w : writers)
        w->finish();
    return p;
}

/**
 * The reference for the out-of-core replay: every shard's sub-trace
 * materialized and replayed with the in-memory, unbudgeted OPG.
 */
ExperimentResult
materializedShardedReplay(const std::string &pct,
                          const ExperimentConfig &config,
                          const std::string &tmp_dir)
{
    const Partition part = demux(pct, config, tmp_dir);
    std::vector<ExperimentResult> results;
    for (std::size_t s = 0; s < part.files.size(); ++s) {
        ExperimentConfig cfg = part.shardCfg;
        cfg.oracleMemBudget = 0;
        cfg.windowAccesses = 0;
        tracefmt::PctMmapSource src(part.files[s]->path);
        const Trace trace = tracefmt::readAll(src);
        Stack stack(cfg, part.numDisks, part.capacity(s), false);
        stack.run(trace);
        results.push_back(stack.result());
    }
    return mergeOwned(results, part.numDisks);
}

/**
 * The sharded replay of runShardedExperiment(), shards run one after
 * another on the benchmark's timed stack.
 */
Breakdown
tracedShardedReplay(const std::string &pct, const ExperimentConfig &config,
                    const std::string &tmp_dir)
{
    Breakdown b;
    const Clock::time_point start = Clock::now();
    const Partition part = demux(pct, config, tmp_dir);
    b.demux = secondsSince(start);
    const std::size_t num_disks = part.numDisks;

    const PowerModel pm(config.spec);
    const DpmKind pricing = DpmKind::Practical; // practical DPM
    const Energy theta = pm.mode(firstEnvelopeNap(pm)).transitionEnergy();
    const std::size_t budget = part.shardCfg.oracleMemBudget;

    std::vector<ExperimentResult> results;
    for (std::size_t s = 0; s < part.files.size(); ++s) {
        ExperimentConfig cfg = part.shardCfg;
        cfg.cacheBlocks = part.capacity(s);
        LayerClock decode;
        Clock::time_point t0 = Clock::now();
        ShardSource src(part.files[s]->path, num_disks, decode);
        b.decode += secondsSince(t0);

        t0 = Clock::now();
        WindowedFuture::Options wopts;
        wopts.windowEntries = cfg.windowAccesses;
        wopts.chunkAccesses = cfg.oracleChunkAccesses;
        wopts.pinTimes = true;
        wopts.pinnedBudgetBytes = std::max<std::size_t>(budget / 2, 1);
        WindowedFuture fut(part.files[s]->path, wopts);
        Stack stack(cfg, num_disks, cfg.cacheBlocks, true,
                    [&](const PowerModel &spm, const PaClassifier *) {
                        auto opg =
                            std::make_unique<SpilledWindowedOpgPolicy>(
                                spm, pricing, theta,
                                std::max<std::size_t>(budget / 2, 1));
                        opg->prepareWindowed(std::move(fut));
                        return opg;
                    });
        b.window += secondsSince(t0);

        stack.run(src);
        results.push_back(stack.result());
        const double policy = stack.clocks().policy.seconds();
        const double dpm = stack.clocks().dpm.seconds();
        b.policy += policy;
        b.dpm += dpm;
        b.decode += decode.seconds();
        b.storageSelf += stack.phaseSeconds("replay") +
                         stack.phaseSeconds("drain_finalize") - policy -
                         dpm - decode.seconds();
        b.policyCalls += stack.clocks().policy.calls;
        b.dpmCalls += stack.clocks().dpm.calls;
        b.recycles += stack.regionRecycles();
    }

    const Clock::time_point t0 = Clock::now();
    b.result = mergeOwned(results, num_disks);
    b.merge = secondsSince(t0);
    b.wall = secondsSince(start);
    double total = 0;
    for (const double n : part.records)
        total += n;
    b.imbalance =
        *std::max_element(part.records.begin(), part.records.end()) /
        (total / static_cast<double>(part.records.size()));
    return b;
}

} // namespace

void
runShardedWtdu(const Options &opt, Report &report)
{
    const uint64_t requests = opt.tiny ? 60000 : 4000000;
    const ExperimentConfig cfg = shardedConfig(requests, opt.tiny);
    TempPct pct(opt.tmpDir, "scaled-oltp");

    // Set-up: stream the scaled trace to .pct repeatedly. Traced runs
    // time generation inside each set-up; the rest is the writer.
    std::vector<double> gens;
    const std::vector<double> setups =
        repeatFor(opt.tiny ? 0 : kSetupSeconds, kSetupReps, [&] {
            LayerClock gen;
            std::unique_ptr<StreamingSyntheticSource> src;
            if (opt.trace)
                src = std::make_unique<TimedGenerator>(opt.seed, requests,
                                                       gen);
            else
                src = std::make_unique<StreamingSyntheticSource>(
                    scaledOltpStreams(kDisks), 0.0, opt.seed, requests);
            const tracefmt::PctInfo info =
                tracefmt::writePct(pct.path, *src);
            gens.push_back(gen.seconds());
            report.check(info.records == requests,
                         "generator produced a short trace");
        });
    uint64_t accesses = 0;
    {
        tracefmt::PctMmapSource src(pct.path);
        accesses = tracefmt::scan(src).blocks;
    }
    const unsigned jobs = runner::ThreadPool::defaultWorkers();
    std::cout << "scaled-sharded-wtdu: " << requests << " requests, "
              << accesses << " block accesses, " << kDisks << " disks, "
              << kShards << " shards, " << jobs << " jobs, seed "
              << opt.seed << '\n';

    ExperimentResult ref;
    bool have_ref = false;
    auto gate = [&](const ExperimentResult &r, const std::string &what) {
        if (!have_ref) {
            ref = r;
            have_ref = true;
        }
        report.check(Fingerprint(r) == Fingerprint(ref),
                     what + " differs from the first run");
        report.check(ledgerConserves(r),
                     what + " breaks ledger conservation");
        report.check(r.cache.accesses == accesses &&
                         r.cache.hits + r.cache.misses == accesses,
                     what + " lost accesses");
    };
    auto sharded = [&](unsigned njobs) {
        runner::ShardReplayOptions sopts;
        sopts.shards = kShards;
        sopts.jobs = njobs;
        sopts.tempDir = opt.tmpDir;
        return runner::runShardedExperiment(pct.path, cfg, sopts);
    };

    if (!opt.trace) {
        const std::vector<double> secs = repeatFor(
            opt.seconds, 3, [&] { gate(sharded(jobs), "sharded replay"); });
        printReps("set-up", setups);
        printReps("sharded replay", secs);
        report.metric("setup_s", median(setups));
        report.metric("throughput_mrps",
                      static_cast<double>(requests) / median(secs) / 1e6);
        report.metric("peak_rss_mb", peakRssMb());
        simMetrics(report, ref);
        // After the peak-RSS sample: the reference holds whole shards.
        gate(materializedShardedReplay(pct.path, cfg, opt.tmpDir),
             "materialized in-memory OPG reference");
        return;
    }

    double decode_s = 0;
    {
        tracefmt::PctReadOptions ropts;
        ropts.verifyChecksum = false;
        const Clock::time_point t0 = Clock::now();
        tracefmt::PctMmapSource src(pct.path, ropts);
        TraceRecord rec;
        uint64_t n = 0;
        while (src.next(rec))
            ++n;
        decode_s = secondsSince(t0);
        report.check(n == requests, "decode pass lost records");
    }

    // Alternate jobs=1, jobs=N and the traced serial pipeline.
    std::vector<double> t1;
    std::vector<double> tn;
    std::vector<Breakdown> traced;
    const Clock::time_point start = Clock::now();
    while (traced.empty() || secondsSince(start) < opt.seconds) {
        Clock::time_point t0 = Clock::now();
        gate(sharded(1), "sharded replay at 1 job");
        t1.push_back(secondsSince(t0));
        t0 = Clock::now();
        gate(sharded(jobs), "sharded replay at N jobs");
        tn.push_back(secondsSince(t0));
        traced.push_back(tracedShardedReplay(pct.path, cfg, opt.tmpDir));
        gate(traced.back().result, "traced sharded replay");
    }
    std::vector<double> walls;
    for (const Breakdown &x : traced)
        walls.push_back(x.wall);
    const double mid = quantile(walls, 0.5);
    const Breakdown *b = &traced[0];
    for (const Breakdown &x : traced) {
        if (x.wall == mid)
            b = &x;
    }

    std::vector<double> writes;
    for (std::size_t i = 0; i < setups.size(); ++i)
        writes.push_back(setups[i] - gens[i]);
    report.metric("trace.gen_s", median(gens));
    report.metric("tracefmt.write_pct_s", median(writes));
    report.metric("tracefmt.decode_s", b->decode);
    report.metric("tracefmt.decode_mrps",
                  static_cast<double>(requests) / decode_s / 1e6);
    report.metric("runner.demux_s", b->demux);
    report.metric("cache.window_build_s", b->window);
    report.metric("cache.policy_s", b->policy);
    report.metric("cache.policy_ns_per_access",
                  b->policy * 1e9 / static_cast<double>(accesses));
    report.metric("core.storage_self_s", b->storageSelf);
    report.metric("disk.dpm_s", b->dpm);
    report.metric("cache.policy_calls",
                  static_cast<double>(b->policyCalls));
    report.metric("disk.dpm_calls", static_cast<double>(b->dpmCalls));
    report.metric("core.wtdu.region_recycles",
                  static_cast<double>(b->recycles));
    counterMetrics(report, ref);
    report.metric("runner.parallel_efficiency",
                  median(t1) / (jobs * median(tn)));
    report.metric("runner.shard_imbalance", b->imbalance);
    report.metric("obs.traced_wall_s", b->wall);
    report.metric("obs.layer_sum_ratio", b->layerSum() / b->wall);
    report.metric("obs.trace_overhead_ratio", median(walls) / median(t1));
    gate(materializedShardedReplay(pct.path, cfg, opt.tmpDir),
         "materialized in-memory OPG reference");
}

} // namespace perfbench
