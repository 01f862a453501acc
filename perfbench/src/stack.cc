#include "stack.hh"

#include <stdexcept>

namespace perfbench
{

using namespace pacache;

Stack::Stack(const ExperimentConfig &config, std::size_t num_disks,
             std::size_t capacity, bool timed,
             const PolicyFactory &factory)
    : cfg(config), numDisks(num_disks), pm(config.spec),
      sm(config.spec, config.service), practical(pm), adaptive(pm)
{
    if (cfg.dpm == DpmChoice::Oracle || cfg.observer || cfg.profiler ||
        cfg.policy == PolicyKind::InfiniteCache) {
        throw std::invalid_argument(
            "benchmark stack: oracle DPM, infinite cache and "
            "observer/profiler hooks are not supported");
    }
    if (policyNeedsClassifier(cfg.policy)) {
        cls = std::make_unique<PaClassifier>(numDisks,
                                             resolvePaParams(cfg, pm));
    }
    policy = factory ? factory(pm, cls.get())
                     : makeReplacementPolicy(cfg, pm, cls.get(),
                                             capacity);
    ReplacementPolicy *front = policy.get();
    if (timed) {
        timedPolicy = std::make_unique<TimedPolicy>(*policy, clk.policy);
        front = timedPolicy.get();
    }
    cache = std::make_unique<Cache>(capacity, *front);

    Dpm *dpm = &static_cast<Dpm &>(alwaysOn);
    if (cfg.dpm == DpmChoice::Practical)
        dpm = &practical;
    else if (cfg.dpm == DpmChoice::Adaptive)
        dpm = &adaptive;
    Dpm *logDpm = &alwaysOn;
    if (timed) {
        timedDpm = std::make_unique<TimedDpm>(*dpm, clk.dpm);
        timedLogDpm = std::make_unique<TimedDpm>(alwaysOn, clk.dpm);
        dpm = timedDpm.get();
        logDpm = timedLogDpm.get();
    }
    disks = std::make_unique<DiskArray>(numDisks, eq, pm, sm, *dpm,
                                        cfg.disk);
    if (cfg.storage.writePolicy ==
        WritePolicy::WriteThroughDeferredUpdate) {
        logDisk = std::make_unique<Disk>(static_cast<DiskId>(numDisks),
                                         eq, pm, sm, *logDpm,
                                         DiskOptions{});
    }
    cfg.storage.profiler = &profiler;
}

void
Stack::run(const Trace &trace)
{
    system = std::make_unique<StorageSystem>(trace, eq, *cache, *disks,
                                             cfg.storage, cls.get(),
                                             logDisk.get());
    system->run();
}

void
Stack::run(tracefmt::TraceSource &source)
{
    system = std::make_unique<StorageSystem>(source, eq, *cache, *disks,
                                             cfg.storage, cls.get(),
                                             logDisk.get());
    system->run();
}

void
Stack::attachIncremental()
{
    system = std::make_unique<StorageSystem>(eq, *cache, *disks,
                                             cfg.storage, cls.get(),
                                             logDisk.get());
}

void
Stack::step(const BlockAccess &acc, std::size_t idx)
{
    if (!system)
        attachIncremental();
    system->step(acc, idx);
}

void
Stack::finish(Time end_time)
{
    if (!system)
        attachIncremental();
    system->finish(end_time);
}

ExperimentResult
Stack::result() const
{
    ExperimentResult r;
    r.policyName = policyKindName(cfg.policy);
    r.cache = cache->stats();
    r.numModes = pm.numModes();
    r.responses = system->responses();
    r.diskAccesses = system->diskAccesses();
    r.logWrites = system->logWrites();
    r.prefetchedBlocks = system->prefetchedBlocks();
    r.energy = EnergyStats(pm.numModes());
    r.perDisk.reserve(numDisks);
    for (DiskId d = 0; d < numDisks; ++d) {
        const EnergyStats &stats = disks->disk(d).energy();
        r.energy += stats;
        r.perDisk.push_back(stats);
        r.diskMeanInterArrival.push_back(
            disks->disk(d).meanInterArrival());
    }
    r.totalEnergy = r.energy.total();
    if (logDisk) {
        r.logServiceEnergy = logDisk->energy().serviceEnergy;
        r.totalEnergy += r.logServiceEnergy;
    }
    return r;
}

double
Stack::phaseSeconds(const char *name) const
{
    for (const obs::ProfilePhase &p : profiler.phases()) {
        if (p.name == name)
            return p.totalSeconds;
    }
    return 0;
}

uint64_t
Stack::regionRecycles() const
{
    const WtduLog *log = system ? system->wtduLog() : nullptr;
    uint64_t n = 0;
    for (std::size_t d = 0; log && d < log->numDisks(); ++d)
        n += log->timestamp(static_cast<DiskId>(d));
    return n;
}

ExperimentResult
mergeOwned(const std::vector<ExperimentResult> &parts,
           std::size_t num_disks)
{
    const std::size_t n = parts.size();
    ExperimentResult out;
    out.policyName = parts[0].policyName;
    out.numModes = parts[0].numModes;
    out.energy = EnergyStats(out.numModes);
    for (std::size_t d = 0; d < num_disks; ++d) {
        const ExperimentResult &owner = parts[d % n];
        out.energy += owner.perDisk[d];
        out.perDisk.push_back(owner.perDisk[d]);
        out.diskAccesses.push_back(owner.diskAccesses[d]);
        out.diskMeanInterArrival.push_back(
            owner.diskMeanInterArrival[d]);
    }
    for (const ExperimentResult &r : parts) {
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

} // namespace perfbench
