/**
 * @file
 * SimStack — the one assembly of the simulated storage stack (the
 * paper's CacheSim in front of DiskSim with a DPM): power and service
 * models, event queue, DPM, PA classifier, replacement policy, cache,
 * disk array, the optional always-on WTDU log device, the coupling
 * StorageSystem, and the observer/timeline wiring. runExperiment(),
 * each sharded-replay shard, each serving stripe and the qa crash rig
 * all run one (DESIGN.md §5, "Simulation stack").
 */

#ifndef PACACHE_CORE_SIM_STACK_HH
#define PACACHE_CORE_SIM_STACK_HH

#include <functional>
#include <memory>

#include "core/experiment.hh"
#include "disk/dpm.hh"
#include "sim/event_queue.hh"

namespace pacache
{

class SimStack
{
  public:
    /** Builds the replacement policy; null = makeReplacementPolicy. */
    using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>(
        const PowerModel &, const PaClassifier *)>;

    /**
     * @param capacity  cache capacity in blocks
     * @param factory   e.g. a policy whose future knowledge the caller
     *                  prepared
     */
    SimStack(const ExperimentConfig &config, std::size_t num_disks,
             std::size_t capacity, const PolicyFactory &factory = nullptr);
    ~SimStack();

    SimStack(const SimStack &) = delete;
    SimStack &operator=(const SimStack &) = delete;

    /** Replay a whole trace or source (StorageSystem::run). */
    void run(const Trace &trace);
    void run(tracefmt::TraceSource &source);

    /** Incremental mode (StorageSystem::step / finish). */
    void
    step(const BlockAccess &acc, std::size_t idx)
    {
        if (!system)
            attachIncremental();
        system->step(acc, idx);
    }
    void finish(Time trace_end);

    /** Close a run that a CrashException unwound. */
    void finishAfterCrash(Time trace_end);

    /**
     * The run's statistics, with Oracle-DPM re-pricing and the log
     * device's service energy; fills the observer's summary gauges.
     */
    ExperimentResult result() const;

    /** The WTDU log image (null unless WTDU and a run started). */
    WtduLog *wtduLog() { return system ? system->wtduLog() : nullptr; }

  private:
    void attach(std::unique_ptr<StorageSystem> sys);
    void attachIncremental();

    ExperimentConfig cfg; //!< storage.observer/profiler resolved
    std::size_t numDisks;
    PowerModel pm;
    ServiceModel sm;
    EventQueue eq;
    AlwaysOnDpm alwaysOn;
    PracticalDpm practical;
    AdaptiveDpm adaptive;
    std::unique_ptr<PaClassifier> classifier;
    std::unique_ptr<ReplacementPolicy> policy;
    std::unique_ptr<Cache> cache;
    std::unique_ptr<DiskArray> disks;
    std::unique_ptr<Disk> logDisk;
    std::unique_ptr<StorageSystem> system;
};

} // namespace pacache

#endif // PACACHE_CORE_SIM_STACK_HH
