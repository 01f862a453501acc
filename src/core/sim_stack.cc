#include "core/sim_stack.hh"

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "disk/oracle_dpm.hh"
#include "obs/observer.hh"
#include "obs/profiler.hh"
#include "util/logging.hh"

namespace pacache
{

SimStack::SimStack(const ExperimentConfig &config, std::size_t num_disks,
                   std::size_t capacity, const PolicyFactory &factory)
    : cfg(config), numDisks(num_disks), pm(config.spec),
      sm(config.spec, config.service), practical(pm), adaptive(pm)
{
    if (policyNeedsClassifier(cfg.policy)) {
        classifier = std::make_unique<PaClassifier>(
            numDisks, resolvePaParams(cfg, pm));
    }
    policy = factory ? factory(pm, classifier.get())
                     : makeReplacementPolicy(cfg, pm, classifier.get(),
                                             capacity);
    cache = std::make_unique<Cache>(capacity, *policy);

    Dpm *dpm = &static_cast<Dpm &>(alwaysOn);
    if (cfg.dpm == DpmChoice::Practical)
        dpm = &practical;
    else if (cfg.dpm == DpmChoice::Adaptive)
        dpm = &adaptive;

    const bool wtdu = cfg.storage.writePolicy ==
                      WritePolicy::WriteThroughDeferredUpdate;

    // Observability wiring. configureRun() must precede disk
    // construction (the constructor reports the initial power state).
    obs::SimObserver *observer = cfg.observer;
    DiskOptions disk_opts = cfg.disk;
    cfg.storage.profiler = cfg.profiler;
    if (observer) {
        std::vector<std::string> mode_names;
        for (std::size_t m = 0; m < pm.numModes(); ++m)
            mode_names.push_back(pm.mode(m).name);
        observer->configureRun(numDisks, wtdu, std::move(mode_names));
        disk_opts.observer = observer;
        cfg.storage.observer = observer;
        cache->setObserver(observer);
        if (classifier) {
            classifier->setObserver(observer);
            const PaClassifier *cls = classifier.get();
            observer->setPriorityFn([cls, n = numDisks](DiskId d) {
                return d < n && cls->isPriority(d);
            });
        }
    }

    disks = std::make_unique<DiskArray>(numDisks, eq, pm, sm, *dpm,
                                        disk_opts);
    if (wtdu) {
        DiskOptions log_opts;
        log_opts.observer = disk_opts.observer;
        logDisk = std::make_unique<Disk>(static_cast<DiskId>(numDisks),
                                         eq, pm, sm, alwaysOn, log_opts);
    }
}

SimStack::~SimStack() = default;

void
SimStack::attach(std::unique_ptr<StorageSystem> sys)
{
    PACACHE_ASSERT(!system, "a SimStack drives exactly one run");
    system = std::move(sys);
    obs::SimObserver *observer = cfg.observer;
    if (!observer)
        return;
    observer->setSnapshotFn([this](obs::TimelineSnapshot &s) {
        const CacheStats &cs = cache->stats();
        s.accesses = cs.accesses;
        s.hits = cs.hits;
        s.missesPerDisk = system->diskAccesses();
        EnergyStats agg(pm.numModes());
        for (DiskId d = 0; d < numDisks; ++d)
            agg += disks->disk(d).energy();
        s.idleEnergyPerMode = agg.idleEnergyPerMode;
        s.serviceEnergy = agg.serviceEnergy;
        s.spinUpEnergy = agg.spinUpEnergy;
        s.spinDownEnergy = agg.spinDownEnergy;
        s.spinUps = agg.spinUps;
        s.spinDowns = agg.spinDowns;
        const ResponseStats &rs = system->responses();
        s.responseCount = rs.count();
        s.responseSum = rs.sum();
        if (classifier) {
            for (DiskId d = 0; d < numDisks; ++d) {
                if (classifier->isPriority(d))
                    s.prioritySet.push_back(d);
            }
        }
    });
}

void
SimStack::run(const Trace &trace)
{
    attach(std::make_unique<StorageSystem>(trace, eq, *cache, *disks,
                                           cfg.storage, classifier.get(),
                                           logDisk.get()));
    system->run();
}

void
SimStack::run(tracefmt::TraceSource &source)
{
    attach(std::make_unique<StorageSystem>(source, eq, *cache, *disks,
                                           cfg.storage, classifier.get(),
                                           logDisk.get()));
    system->run();
}

void
SimStack::attachIncremental()
{
    attach(std::make_unique<StorageSystem>(eq, *cache, *disks,
                                           cfg.storage, classifier.get(),
                                           logDisk.get()));
}

void
SimStack::finish(Time trace_end)
{
    if (!system)
        attachIncremental();
    system->finish(trace_end);
}

void
SimStack::finishAfterCrash(Time trace_end)
{
    PACACHE_ASSERT(system, "finishAfterCrash() before any run");
    system->finishAfterCrash(trace_end);
}

ExperimentResult
SimStack::result() const
{
    PACACHE_ASSERT(system, "result() before any run");
    ExperimentResult result;
    result.policyName = policyKindName(cfg.policy);
    result.cache = cache->stats();
    result.numModes = pm.numModes();
    result.responses = system->responses();
    result.diskAccesses = system->diskAccesses();
    result.logWrites = system->logWrites();
    result.prefetchedBlocks = system->prefetchedBlocks();

    result.energy = EnergyStats(pm.numModes());
    result.perDisk.reserve(numDisks);
    const bool oracle_dpm = cfg.dpm == DpmChoice::Oracle;
    const OracleAnalyzer oracle(pm);
    {
        obs::ProfileScope pricing_scope(
            oracle_dpm ? cfg.profiler : nullptr, "oracle_pricing");
        for (DiskId d = 0; d < numDisks; ++d) {
            EnergyStats stats = oracle_dpm
                ? oracle.priceDisk(disks->disk(d)).stats
                : disks->disk(d).energy();
            result.energy += stats;
            result.perDisk.push_back(std::move(stats));
            result.diskMeanInterArrival.push_back(
                disks->disk(d).meanInterArrival());
        }
    }

    result.totalEnergy = result.energy.total();
    if (logDisk) {
        result.logServiceEnergy = logDisk->energy().serviceEnergy;
        result.totalEnergy += result.logServiceEnergy;
    }

    // Final summary gauges: the registry snapshot then reports the
    // exact values the CLI report prints.
    if (obs::MetricRegistry *reg =
            cfg.observer ? cfg.observer->metrics() : nullptr) {
        reg->gauge("energy.total_joules").set(result.totalEnergy);
        reg->gauge("energy.service_joules")
            .set(result.energy.serviceEnergy);
        reg->gauge("energy.spinup_joules").set(result.energy.spinUpEnergy);
        reg->gauge("energy.spindown_joules")
            .set(result.energy.spinDownEnergy);
        reg->gauge("energy.idle_joules")
            .set(std::accumulate(result.energy.idleEnergyPerMode.begin(),
                                 result.energy.idleEnergyPerMode.end(),
                                 Energy(0)));
        reg->gauge("cache.hit_ratio").set(result.cache.hitRatio());
        reg->gauge("responses.mean_ms")
            .set(result.responses.mean() * 1e3);
        reg->gauge("responses.p95_ms")
            .set(result.responses.percentile(0.95) * 1e3);
        reg->gauge("responses.max_s").set(result.responses.max());
        for (DiskId d = 0; d < numDisks; ++d) {
            reg->gauge("disk." + std::to_string(d) + ".energy_joules")
                .set(result.perDisk[d].total());
        }
        if (logDisk) {
            reg->gauge("log_device.service_joules")
                .set(result.logServiceEnergy);
        }
    }
    return result;
}

} // namespace pacache
