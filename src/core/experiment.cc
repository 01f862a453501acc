#include "core/experiment.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "cache/arc.hh"
#include "cache/belady.hh"
#include "cache/clock.hh"
#include "cache/fifo.hh"
#include "cache/lirs.hh"
#include "cache/lru.hh"
#include "cache/mq.hh"
#include "core/opg.hh"
#include "core/pa_lru.hh"
#include "core/sim_stack.hh"
#include "obs/profiler.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"
#include "util/logging.hh"
#include "util/temp_file.hh"

namespace pacache
{

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU: return "LRU";
      case PolicyKind::FIFO: return "FIFO";
      case PolicyKind::CLOCK: return "CLOCK";
      case PolicyKind::ARC: return "ARC";
      case PolicyKind::MQ: return "MQ";
      case PolicyKind::LIRS: return "LIRS";
      case PolicyKind::Belady: return "Belady";
      case PolicyKind::OPG: return "OPG";
      case PolicyKind::PALRU: return "PA-LRU";
      case PolicyKind::PAARC: return "PA-ARC";
      case PolicyKind::PALIRS: return "PA-LIRS";
      case PolicyKind::InfiniteCache: return "InfiniteCache";
    }
    PACACHE_PANIC("unknown policy kind");
}

bool
policyNeedsClassifier(PolicyKind kind)
{
    return kind == PolicyKind::PALRU || kind == PolicyKind::PAARC ||
           kind == PolicyKind::PALIRS;
}

bool
policyIsOffline(PolicyKind kind)
{
    return kind == PolicyKind::Belady || kind == PolicyKind::OPG;
}

bool
policyNeedsFuture(PolicyKind kind)
{
    return policyIsOffline(kind) || kind == PolicyKind::InfiniteCache;
}

std::size_t
firstEnvelopeNap(const PowerModel &pm)
{
    // First mode below full speed that appears on the lower envelope.
    const auto &env = pm.envelopeModes();
    return env.size() > 1 ? env[1] : pm.deepestMode();
}

PaParams
resolvePaParams(const ExperimentConfig &config, const PowerModel &pm)
{
    PaParams pa = config.pa;
    if (pa.intervalThreshold <= 0)
        pa.intervalThreshold = pm.breakEvenTime(firstEnvelopeNap(pm));
    return pa;
}

namespace
{

/**
 * OPG prices idle periods with the energy function of the DPM the
 * disks actually run; the adaptive timeout policy is closest to the
 * threshold walk.
 */
DpmKind
opgPricing(const ExperimentConfig &cfg)
{
    return (cfg.dpm == DpmChoice::Practical ||
            cfg.dpm == DpmChoice::Adaptive)
        ? DpmKind::Practical
        : DpmKind::Oracle;
}

Energy
opgThetaOf(const ExperimentConfig &cfg, const PowerModel &pm)
{
    return cfg.opgTheta >= 0
        ? cfg.opgTheta
        : pm.mode(firstEnvelopeNap(pm)).transitionEnergy();
}

} // namespace

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const ExperimentConfig &cfg, const PowerModel &pm,
                      const PaClassifier *classifier, std::size_t capacity)
{
    const DpmKind pricing = opgPricing(cfg);
    const Energy theta = opgThetaOf(cfg, pm);

    switch (cfg.policy) {
      case PolicyKind::LRU:
      case PolicyKind::InfiniteCache:
        return std::make_unique<LruPolicy>();
      case PolicyKind::FIFO:
        return std::make_unique<FifoPolicy>();
      case PolicyKind::CLOCK:
        return std::make_unique<ClockPolicy>();
      case PolicyKind::ARC:
        return std::make_unique<ArcPolicy>(capacity);
      case PolicyKind::MQ:
        return std::make_unique<MqPolicy>();
      case PolicyKind::LIRS:
        return std::make_unique<LirsPolicy>(capacity);
      case PolicyKind::Belady:
        return std::make_unique<BeladyPolicy>();
      case PolicyKind::OPG:
        if (cfg.oracleMemBudget > 0) {
            return std::make_unique<SpilledOpgPolicy>(
                pm, pricing, theta, cfg.oracleMemBudget);
        }
        return std::make_unique<OpgPolicy>(pm, pricing, theta);
      case PolicyKind::PALRU:
        PACACHE_ASSERT(classifier, "PA-LRU needs a classifier");
        return std::make_unique<PaLruPolicy>(*classifier);
      case PolicyKind::PAARC:
        PACACHE_ASSERT(classifier, "PA-ARC needs a classifier");
        return std::make_unique<PaDualPolicy>(
            *classifier, std::make_unique<ArcPolicy>(capacity),
            std::make_unique<ArcPolicy>(capacity), "PA-ARC");
      case PolicyKind::PALIRS:
        PACACHE_ASSERT(classifier, "PA-LIRS needs a classifier");
        return std::make_unique<PaDualPolicy>(
            *classifier, std::make_unique<LirsPolicy>(capacity),
            std::make_unique<LirsPolicy>(capacity), "PA-LIRS");
    }
    PACACHE_PANIC("unknown policy kind");
}

std::size_t
partitionCapacity(std::size_t cache_blocks, std::size_t parts,
                  std::size_t part)
{
    PACACHE_ASSERT(parts >= 1 && cache_blocks >= parts, "cache of ",
                   cache_blocks, " blocks cannot be split across ", parts,
                   " partitions");
    return cache_blocks / parts + (part < cache_blocks % parts ? 1 : 0);
}

ExperimentResult
mergePartitioned(const std::vector<ExperimentResult> &results,
                 std::size_t num_disks)
{
    PACACHE_ASSERT(!results.empty(), "nothing to merge");
    ExperimentResult out;
    out.policyName = results[0].policyName;
    out.numModes = results[0].numModes;
    out.energy = EnergyStats(out.numModes);
    out.perDisk.reserve(num_disks);
    for (std::size_t d = 0; d < num_disks; ++d) {
        const ExperimentResult &owner = results[d % results.size()];
        PACACHE_ASSERT(d < owner.perDisk.size(),
                       "partition result missing disk ", d);
        out.energy += owner.perDisk[d];
        out.perDisk.push_back(owner.perDisk[d]);
        out.diskAccesses.push_back(owner.diskAccesses[d]);
        out.diskMeanInterArrival.push_back(
            owner.diskMeanInterArrival[d]);
    }
    for (const ExperimentResult &r : results) {
        out.cache.accesses += r.cache.accesses;
        out.cache.hits += r.cache.hits;
        out.cache.misses += r.cache.misses;
        out.cache.evictions += r.cache.evictions;
        out.cache.coldMisses += r.cache.coldMisses;
        out.cache.prefetchInserts += r.cache.prefetchInserts;
        out.responses.merge(r.responses);
        out.logWrites += r.logWrites;
        out.prefetchedBlocks += r.prefetchedBlocks;
        out.logServiceEnergy += r.logServiceEnergy;
    }
    out.totalEnergy = out.energy.total() + out.logServiceEnergy;
    return out;
}

namespace
{

/** Infinite cache: capacity past the total block volume. */
constexpr std::size_t kInfiniteSlack = 16;

} // namespace

ExperimentResult
runExperiment(const Trace &trace, const ExperimentConfig &config)
{
    PACACHE_ASSERT(!trace.empty(), "cannot run an empty trace");
    SimStack stack(config, std::max<std::size_t>(trace.numDisks(), 1),
                   config.policy == PolicyKind::InfiniteCache
                       ? trace.numBlockAccesses() + kInfiniteSlack
                       : config.cacheBlocks);
    stack.run(trace);
    return stack.result();
}

namespace
{

/**
 * The off-line policy of an out-of-core run, prepared on windowed
 * future knowledge over @p pct_path: the backward pass over the file
 * replaces prepare()'s whole-trace oracle indexing.
 */
std::unique_ptr<ReplacementPolicy>
makeWindowedPolicy(const ExperimentConfig &config, const PowerModel &pm,
                   const std::string &pct_path)
{
    obs::ProfileScope scope(config.profiler, "oracle_precompute");
    WindowedFuture::Options wopts;
    wopts.windowEntries = config.windowAccesses;
    if (config.oracleChunkAccesses > 0)
        wopts.chunkAccesses = config.oracleChunkAccesses;
    WindowedFuture fut(pct_path, wopts);
    const auto prepared = [&fut](auto policy) {
        policy->prepareWindowed(std::move(fut));
        return std::unique_ptr<ReplacementPolicy>(std::move(policy));
    };
    // Budgeted oracle: the whole budget goes to the policy's
    // SpillPool.
    if (config.policy == PolicyKind::OPG && config.oracleMemBudget > 0) {
        return prepared(std::make_unique<SpilledWindowedOpgPolicy>(
            pm, opgPricing(config), opgThetaOf(config, pm),
            config.oracleMemBudget));
    }
    if (config.policy == PolicyKind::OPG) {
        return prepared(std::make_unique<WindowedOpgPolicy>(
            pm, opgPricing(config), opgThetaOf(config, pm)));
    }
    PACACHE_ASSERT(config.policy == PolicyKind::Belady,
                   "windowed oracle supports Belady/OPG only");
    return prepared(std::make_unique<WindowedBeladyPolicy>());
}

} // namespace

ExperimentResult
runExperiment(tracefmt::TraceSource &source,
              const ExperimentConfig &config)
{
    // Off-line future knowledge needs the whole access stream before
    // the run starts: materialize by default, or run out-of-core on
    // the windowed oracle when a window was requested.
    const bool offline = policyIsOffline(config.policy);
    if (offline && config.windowAccesses == 0) {
        const Trace trace = tracefmt::readAll(source);
        return runExperiment(trace, config);
    }

    // Disk-array sizing: take the header hint when the format has
    // one (.pct, memory), else a constant-memory pre-scan pass.
    uint64_t num_disks = source.numDisksHint();
    if (num_disks == tracefmt::TraceSource::kUnknown)
        num_disks = tracefmt::scan(source).numDisks;
    const std::size_t disks =
        std::max<std::size_t>(static_cast<std::size_t>(num_disks), 1);

    if (!offline) {
        // The infinite cache sums its volume in a constant-memory
        // pre-scan.
        SimStack stack(config, disks,
                       config.policy == PolicyKind::InfiniteCache
                           ? static_cast<std::size_t>(
                                 tracefmt::scan(source).blocks) +
                                 kInfiniteSlack
                           : config.cacheBlocks);
        stack.run(source);
        return stack.result();
    }

    // The backward pass needs random access to the records: use the
    // source's own .pct file, or spill the stream to a temporary one
    // (a single sequential pass, never materialized).
    std::string pct_path = source.pctPath();
    std::optional<TempFile> spill;
    if (pct_path.empty()) {
        pct_path = spill.emplace("pacache-spill", ".pct").path();
        tracefmt::writePct(pct_path, source);
        source.rewind();
    }
    SimStack stack(config, disks, config.cacheBlocks,
                   [&](const PowerModel &pm, const PaClassifier *) {
                       return makeWindowedPolicy(config, pm, pct_path);
                   });
    stack.run(source);
    return stack.result();
}

} // namespace pacache
