/**
 * @file
 * Golden equivalence suite for the out-of-core oracle path and the
 * disk-sharded replay (PR: windowed offline oracles + disk-sharded
 * streaming).
 *
 * The windowed replay (runExperiment over a streaming source with
 * config.windowAccesses > 0) must be BIT-identical to the
 * materialized oracle on the same workload — evictions, counters,
 * every energy cell of the per-disk ledger breakdown — for every
 * window size, including window 1 and windows straddling the
 * backward-pass chunk size. The sharded replay must be invariant in
 * the worker count, at one shard must degenerate to the plain
 * streaming run, and at any shard count must equal the serving
 * front-end over the same partition (both merge through
 * mergePartitioned()). The out-of-core paths leave no temp files.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "core/experiment.hh"
#include "obs/energy_ledger.hh"
#include "runner/shard_replay.hh"
#include "serve/server.hh"
#include "trace/synthetic.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"

#include "../tracefmt/temp_file.hh"

namespace pacache
{
namespace
{

Trace
workload(uint64_t seed = 17, uint32_t disks = 6)
{
    SyntheticParams p;
    p.numRequests = 2500;
    p.numDisks = disks;
    p.arrival = ArrivalModel::pareto(60.0);
    p.writeRatio = 0.25;
    p.address.footprintBlocks = 300;
    p.seed = seed;
    return generateSynthetic(p);
}

std::string
writeTracePct(const Trace &t, const std::string &name)
{
    const std::string path = test::tempPath(name);
    tracefmt::MemorySource src(t);
    tracefmt::writePct(path, src);
    return path;
}

/** One EnergyStats breakdown, cell by cell (the ledger rows). */
void
expectSameBreakdown(const EnergyStats &a, const EnergyStats &b,
                    const char *what)
{
    EXPECT_EQ(a.total(), b.total()) << what;
    EXPECT_EQ(a.serviceEnergy, b.serviceEnergy) << what;
    EXPECT_EQ(a.spinUpEnergy, b.spinUpEnergy) << what;
    EXPECT_EQ(a.spinDownEnergy, b.spinDownEnergy) << what;
    EXPECT_EQ(a.spinUps, b.spinUps) << what;
    EXPECT_EQ(a.spinDowns, b.spinDowns) << what;
    EXPECT_EQ(a.spinUpTime, b.spinUpTime) << what;
    EXPECT_EQ(a.spinDownTime, b.spinDownTime) << what;
    EXPECT_EQ(a.busyTime, b.busyTime) << what;
    EXPECT_EQ(a.requests, b.requests) << what;
    ASSERT_EQ(a.idleEnergyPerMode.size(), b.idleEnergyPerMode.size());
    for (std::size_t m = 0; m < a.idleEnergyPerMode.size(); ++m)
        EXPECT_EQ(a.idleEnergyPerMode[m], b.idleEnergyPerMode[m])
            << what << " mode " << m;
    EXPECT_EQ(a.timePerMode, b.timePerMode) << what;
    for (std::size_t c = 0; c < kNumWakeCauses; ++c) {
        EXPECT_EQ(a.spinUpsByCause[c], b.spinUpsByCause[c]) << what;
        EXPECT_EQ(a.spinUpEnergyByCause[c], b.spinUpEnergyByCause[c])
            << what;
    }
}

/** Every statistic a run produces, compared exactly (not near). */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.numModes, b.numModes);
    EXPECT_EQ(a.cache.accesses, b.cache.accesses);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.cache.evictions, b.cache.evictions);
    EXPECT_EQ(a.cache.coldMisses, b.cache.coldMisses);
    EXPECT_EQ(a.cache.prefetchInserts, b.cache.prefetchInserts);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.responses.count(), b.responses.count());
    EXPECT_EQ(a.responses.sum(), b.responses.sum());
    EXPECT_EQ(a.responses.mean(), b.responses.mean());
    EXPECT_EQ(a.responses.max(), b.responses.max());
    EXPECT_EQ(a.responses.percentile(0.95),
              b.responses.percentile(0.95));
    expectSameBreakdown(a.energy, b.energy, "aggregate");
    ASSERT_EQ(a.perDisk.size(), b.perDisk.size());
    for (std::size_t d = 0; d < a.perDisk.size(); ++d)
        expectSameBreakdown(a.perDisk[d], b.perDisk[d], "per-disk");
    // The attribution ledger both runs imply must reconcile too.
    obs::EnergyLedger la, lb;
    for (std::size_t d = 0; d < a.perDisk.size(); ++d) {
        la.addDisk("disk" + std::to_string(d), a.perDisk[d]);
        lb.addDisk("disk" + std::to_string(d), b.perDisk[d]);
    }
    EXPECT_TRUE(la.conserves());
    EXPECT_TRUE(lb.conserves());
    EXPECT_EQ(la.total().total(), lb.total().total());
    EXPECT_EQ(a.diskAccesses, b.diskAccesses);
    EXPECT_EQ(a.diskMeanInterArrival, b.diskMeanInterArrival);
    EXPECT_EQ(a.logWrites, b.logWrites);
    EXPECT_EQ(a.logServiceEnergy, b.logServiceEnergy);
    EXPECT_EQ(a.prefetchedBlocks, b.prefetchedBlocks);
}

class WindowedOracleEquivalence
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(WindowedOracleEquivalence, MatchesMaterializedForEveryWindow)
{
    const Trace t = workload();
    const std::string pct = writeTracePct(t, "winoracle.pct");

    ExperimentConfig cfg;
    cfg.policy = GetParam();
    cfg.dpm = DpmChoice::Oracle;
    cfg.cacheBlocks = 220;
    const ExperimentResult materialized = runExperiment(t, cfg);

    const std::size_t chunk = 256;
    cfg.oracleChunkAccesses = chunk;
    // The satellite matrix: 1, chunk-1, chunk, chunk+1, "infinite".
    const std::size_t windows[] = {1, chunk - 1, chunk, chunk + 1,
                                   std::size_t(1) << 20};
    for (const std::size_t w : windows) {
        SCOPED_TRACE("window " + std::to_string(w));
        cfg.windowAccesses = w;
        tracefmt::PctMmapSource src(pct);
        const ExperimentResult windowed = runExperiment(src, cfg);
        expectIdentical(materialized, windowed);
    }
}

TEST_P(WindowedOracleEquivalence, PracticalDpmAndWriteBackMatch)
{
    // A second point in config space: on-line DPM pricing and a
    // write-back cache, where eviction order feeds dirty flushes.
    const Trace t = workload(29);
    const std::string pct = writeTracePct(t, "winoracle_wb.pct");

    ExperimentConfig cfg;
    cfg.policy = GetParam();
    cfg.dpm = DpmChoice::Practical;
    cfg.storage.writePolicy = WritePolicy::WriteBack;
    cfg.cacheBlocks = 180;
    const ExperimentResult materialized = runExperiment(t, cfg);

    cfg.windowAccesses = 100;
    cfg.oracleChunkAccesses = 333;
    tracefmt::PctMmapSource src(pct);
    const ExperimentResult windowed = runExperiment(src, cfg);
    expectIdentical(materialized, windowed);
}

INSTANTIATE_TEST_SUITE_P(Oracles, WindowedOracleEquivalence,
                         ::testing::Values(PolicyKind::Belady,
                                           PolicyKind::OPG),
                         [](const auto &info) {
                             return info.param == PolicyKind::OPG
                                        ? "OPG"
                                        : "Belady";
                         });

TEST(WindowedOracle, NonPctSourcesSpillTransparently)
{
    // A MemorySource has no backing .pct file; the windowed path
    // must spill it to a temporary one and still match.
    const Trace t = workload(41);
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 200;
    const ExperimentResult materialized = runExperiment(t, cfg);

    cfg.windowAccesses = 64;
    tracefmt::MemorySource src(t);
    const ExperimentResult windowed = runExperiment(src, cfg);
    expectIdentical(materialized, windowed);
}

TEST(ShardedReplay, InvariantInWorkerCount)
{
    const Trace t = workload(53, 9);
    const std::string pct = writeTracePct(t, "shard_jobs.pct");
    for (const PolicyKind policy :
         {PolicyKind::OPG, PolicyKind::LRU}) {
        ExperimentConfig cfg;
        cfg.policy = policy;
        cfg.cacheBlocks = 240;
        runner::ShardReplayOptions opts;
        opts.shards = 4;
        opts.jobs = 1;
        const ExperimentResult serial =
            runner::runShardedExperiment(pct, cfg, opts);
        opts.jobs = 5;
        const ExperimentResult parallel =
            runner::runShardedExperiment(pct, cfg, opts);
        expectIdentical(serial, parallel);
    }
}

TEST(ShardedReplay, OneShardDegeneratesToPlainStreaming)
{
    const Trace t = workload(61, 7);
    const std::string pct = writeTracePct(t, "shard_one.pct");
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 256;
    cfg.windowAccesses = 128; // same window on both paths

    tracefmt::PctMmapSource src(pct);
    const ExperimentResult plain = runExperiment(src, cfg);

    runner::ShardReplayOptions opts;
    opts.shards = 1;
    const ExperimentResult sharded =
        runner::runShardedExperiment(pct, cfg, opts);
    expectIdentical(plain, sharded);
}

/** Sparse arrivals, so disks sleep and WTDU writes hit the log. */
Trace
sleepyWorkload(uint64_t seed)
{
    SyntheticParams p;
    p.numRequests = 2000;
    p.numDisks = 6;
    p.arrival = ArrivalModel::pareto(2000.0);
    p.writeRatio = 0.4;
    p.address.footprintBlocks = 300;
    p.seed = seed;
    return generateSynthetic(p);
}

/** {policy, write policy, shard count} */
using PartitionCase = std::tuple<PolicyKind, WritePolicy, unsigned>;

class ShardedReplayMatchesServe
    : public test::TempDirTest,
      public ::testing::WithParamInterface<PartitionCase>
{
};

TEST_P(ShardedReplayMatchesServe, EveryFieldEqual)
{
    const auto [policy, write, shards] = GetParam();
    ExperimentConfig cfg;
    cfg.policy = policy;
    cfg.storage.writePolicy = write;
    cfg.storage.wtduRegionBlocks = 48; // regions fill and retire
    cfg.cacheBlocks = 240;
    for (const uint64_t seed : {7, 11, 23}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Trace t = sleepyWorkload(seed);
        const std::string pct = path("trace.pct");
        tracefmt::MemorySource mem(t);
        tracefmt::writePct(pct, mem);

        runner::ShardReplayOptions opts;
        opts.shards = shards;
        opts.jobs = 2;
        opts.tempDir = dir();
        const ExperimentResult sharded =
            runner::runShardedExperiment(pct, cfg, opts);

        serve::ServeConfig sc;
        sc.exp = cfg;
        sc.shards = shards;
        sc.threads = 2;
        const ExperimentResult served =
            serve::ServeServer::replayTrace(t, sc).result;
        expectIdentical(sharded, served);
        EXPECT_GT(sharded.energy.spinUps, 0u);
        if (write == WritePolicy::WriteThroughDeferredUpdate) {
            EXPECT_GT(sharded.logWrites, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, ShardedReplayMatchesServe,
    ::testing::Combine(
        ::testing::Values(PolicyKind::LRU, PolicyKind::PALRU,
                          PolicyKind::ARC),
        ::testing::Values(WritePolicy::WriteBack,
                          WritePolicy::WriteThroughDeferredUpdate),
        ::testing::Values(2u, 3u)),
    [](const auto &info) {
        std::string name = policyKindName(std::get<0>(info.param));
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        name += std::get<1>(info.param) == WritePolicy::WriteBack
                    ? "_WB_"
                    : "_WTDU_";
        return name + std::to_string(std::get<2>(info.param));
    });

using OutOfCoreTempFiles = test::TempDirTest;

TEST_F(OutOfCoreTempFiles, RunsLeaveTheTempDirectoryEmpty)
{
    const Trace t = workload(71, 5);
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.cacheBlocks = 200;
    cfg.windowAccesses = 64;
    cfg.oracleMemBudget = 1; // every oracle tier spills

    // Spill .pct, sidecars and spill pages all go to $TMPDIR.
    const char *old = ::getenv("TMPDIR");
    const std::string saved = old ? old : "";
    ::setenv("TMPDIR", dir().c_str(), 1);
    tracefmt::MemorySource src(t);
    const ExperimentResult windowed = runExperiment(src, cfg);
    if (old)
        ::setenv("TMPDIR", saved.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
    EXPECT_GT(windowed.cache.accesses, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir()));

    // Shard sub-traces go to opts.tempDir.
    const std::string pct = writeTracePct(t, "cleanup_input.pct");
    runner::ShardReplayOptions opts;
    opts.shards = 3;
    opts.tempDir = dir();
    const ExperimentResult sharded =
        runner::runShardedExperiment(pct, cfg, opts);
    std::filesystem::remove(pct);
    EXPECT_GT(sharded.cache.accesses, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir()));
}

} // namespace
} // namespace pacache
