/**
 * @file
 * The benchmark's own assembly of one simulation stack (policy,
 * cache, DPM, disk array, optional WTDU log device, StorageSystem)
 * from public library pieces, following runExperiment()'s
 * construction rules, with the policy and the DPM optionally wrapped
 * in the timing decorators. The traced runs drive this stack and
 * must reproduce the library's own front-ends bit for bit.
 */

#ifndef PERFBENCH_STACK_HH
#define PERFBENCH_STACK_HH

#include <functional>
#include <memory>

#include "cache/cache.hh"
#include "core/experiment.hh"
#include "core/storage_system.hh"
#include "disk/disk_array.hh"
#include "obs/profiler.hh"
#include "sim/event_queue.hh"

#include "common.hh"

namespace perfbench
{

/** Layer times of one stack. */
struct StackClocks
{
    LayerClock policy;
    LayerClock dpm;
};

class Stack
{
  public:
    using PolicyFactory =
        std::function<std::unique_ptr<pacache::ReplacementPolicy>(
            const pacache::PowerModel &, const pacache::PaClassifier *)>;

    /**
     * @param timed    wrap policy and DPM in the timing decorators
     * @param factory  builds the policy; null = makeReplacementPolicy
     */
    Stack(const pacache::ExperimentConfig &cfg, std::size_t num_disks,
          std::size_t capacity, bool timed,
          const PolicyFactory &factory = nullptr);

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Replay an in-memory trace (expand, prepare, replay, drain). */
    void run(const pacache::Trace &trace);
    /** Replay a streaming source. */
    void run(pacache::tracefmt::TraceSource &source);
    /** Incremental mode: one access (serve replica). */
    void step(const pacache::BlockAccess &acc, std::size_t idx);
    void finish(pacache::Time end_time);

    /** The statistics, assembled exactly as runExperiment() does. */
    pacache::ExperimentResult result() const;

    const StackClocks &clocks() const { return clk; }
    /** Phase self times of the StorageSystem run (s). */
    double phaseSeconds(const char *name) const;
    const pacache::PaClassifier *classifier() const { return cls.get(); }
    /** Region retires of the WTDU log over all disks. */
    uint64_t regionRecycles() const;

  private:
    void attachIncremental();

    pacache::ExperimentConfig cfg;
    std::size_t numDisks;
    pacache::PowerModel pm;
    pacache::ServiceModel sm;
    StackClocks clk;
    pacache::obs::Profiler profiler;
    std::unique_ptr<pacache::PaClassifier> cls;
    std::unique_ptr<pacache::ReplacementPolicy> policy;
    std::unique_ptr<TimedPolicy> timedPolicy;
    std::unique_ptr<pacache::Cache> cache;
    pacache::EventQueue eq;
    pacache::AlwaysOnDpm alwaysOn;
    pacache::PracticalDpm practical;
    pacache::AdaptiveDpm adaptive;
    std::unique_ptr<TimedDpm> timedDpm;
    std::unique_ptr<TimedDpm> timedLogDpm;
    std::unique_ptr<pacache::DiskArray> disks;
    std::unique_ptr<pacache::Disk> logDisk;
    std::unique_ptr<pacache::StorageSystem> system;
};

/**
 * Merge per-partition results the way the sharded front-ends do:
 * per-disk statistics from each disk's owning partition
 * (disk mod parts), cache/response/log statistics summed in
 * partition order.
 */
pacache::ExperimentResult
mergeOwned(const std::vector<pacache::ExperimentResult> &parts,
           std::size_t num_disks);

} // namespace perfbench

#endif // PERFBENCH_STACK_HH
