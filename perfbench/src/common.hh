/**
 * @file
 * Shared pieces of the repository benchmark: the run options, the
 * metric/correctness report that prints the final JSON record, the
 * exact result fingerprint every correctness gate compares, and the
 * timing decorators the traced runs wrap around the virtual
 * ReplacementPolicy and Dpm interfaces.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/policy.hh"
#include "core/experiment.hh"
#include "disk/dpm.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/**
 * Set-up runs at least kSetupReps times and for kSetupSeconds (tiny
 * runs skip the time floor); setup_s is the median.
 */
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 4.0;

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;  //!< self-test sizes (seconds, not minutes)
    std::string tmpDir; //!< scratch files; from $TMPDIR
};

double secondsSince(Clock::time_point t0);
uint64_t nowNs();
double median(std::vector<double> v);
/** Nearest-rank quantile, p in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double p);
double peakRssMb();
/** Print "what: n reps, min/median/max seconds" (diagnostics). */
void printReps(const char *what, const std::vector<double> &secs);

/**
 * Call @p body until @p seconds have passed and it ran at least
 * @p min_reps times; returns each call's wall time.
 */
template <typename F>
std::vector<double>
repeatFor(double seconds, int min_reps, F &&body)
{
    std::vector<double> secs;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(secs.size()) < min_reps ||
           secondsSince(start) < seconds) {
        const Clock::time_point t0 = Clock::now();
        body();
        secs.push_back(secondsSince(t0));
    }
    return secs;
}

/**
 * Collects metrics and correctness verdicts and prints them. Every
 * correctness check is one attempted operation; a failed check is a
 * failed operation and makes the run incorrect.
 */
class Report
{
  public:
    void metric(const std::string &name, double value);
    /** Record one checked operation; returns @p ok. */
    bool check(bool ok, const std::string &what);
    /**
     * Print the measured metrics and, as the last stdout line, the
     * JSON record {"correct", "attempted", "failed", "metrics":
     * {name: value}}. run.py adds the units from BENCHMARK.json.
     */
    void print() const;
    bool correct() const { return failed == 0; }

  private:
    std::map<std::string, double> values;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** Outputs that must repeat exactly for a fixed workload and seed. */
struct Fingerprint
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t coldMisses = 0;
    uint64_t spinUps = 0;
    uint64_t spinDowns = 0;
    uint64_t logWrites = 0;
    uint64_t responses = 0;
    double totalEnergy = 0;
    double responseSum = 0;

    Fingerprint() = default;
    explicit Fingerprint(const pacache::ExperimentResult &r);
    bool operator==(const Fingerprint &o) const = default;
};

/** Ledger conservation of every data disk, to 1e-9. */
bool ledgerConserves(const pacache::ExperimentResult &r);

/** Report the simulated end-to-end values of @p r. */
void simMetrics(Report &report, const pacache::ExperimentResult &r);

/**
 * Wall cost of one empty Span (two clock reads and the update), so
 * the timer overhead in the layer times can be judged. How it divides
 * between the timed layer and its caller is not measured.
 */
double spanCostNs();

/** Report the cache/disk counters of @p r (traced runs). */
void counterMetrics(Report &report, const pacache::ExperimentResult &r);

/** Busy time and call count of one wrapped layer. */
struct LayerClock
{
    int64_t ns = 0;
    uint64_t calls = 0;

    double seconds() const { return static_cast<double>(ns) * 1e-9; }
    LayerClock &operator+=(const LayerClock &o)
    {
        ns += o.ns;
        calls += o.calls;
        return *this;
    }
};

/** Adds the wall time of its scope to a LayerClock. */
class Span
{
  public:
    explicit Span(LayerClock &clock) : clk(clock), t0(Clock::now()) {}
    ~Span()
    {
        clk.ns += (Clock::now() - t0).count();
        ++clk.calls;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerClock &clk;
    Clock::time_point t0;
};

/** Forwards every call to a wrapped policy and times it. */
class TimedPolicy : public pacache::ReplacementPolicy
{
  public:
    TimedPolicy(pacache::ReplacementPolicy &inner, LayerClock &clock)
        : in(inner), clk(clock)
    {
    }

    const char *name() const override { return in.name(); }
    void prepare(const std::vector<pacache::BlockAccess> &a) override
    {
        in.prepare(a); // timed by the stack's oracle_precompute phase
    }
    void onAccess(const pacache::BlockId &b, pacache::Time now,
                  std::size_t idx, bool hit) override
    {
        Span s(clk);
        in.onAccess(b, now, idx, hit);
    }
    void beforeMiss(const pacache::BlockId &b, pacache::Time now,
                    std::size_t idx) override
    {
        Span s(clk);
        in.beforeMiss(b, now, idx);
    }
    void onRemove(const pacache::BlockId &b) override
    {
        Span s(clk);
        in.onRemove(b);
    }
    pacache::BlockId evict(pacache::Time now, std::size_t idx) override
    {
        Span s(clk);
        return in.evict(now, idx);
    }
    bool supportsPrefetch() const override
    {
        return in.supportsPrefetch();
    }
    bool isOffline() const override { return in.isOffline(); }
    bool streamReady() const override { return in.streamReady(); }

  private:
    pacache::ReplacementPolicy &in;
    LayerClock &clk;
};

/** Forwards every call to a wrapped DPM and times it. */
class TimedDpm : public pacache::Dpm
{
  public:
    TimedDpm(pacache::Dpm &inner, LayerClock &clock)
        : in(inner), clk(clock)
    {
    }

    std::optional<pacache::Demotion>
    nextDemotion(pacache::DiskId disk, std::size_t mode,
                 pacache::Time idle_age) const override
    {
        Span s(clk);
        return in.nextDemotion(disk, mode, idle_age);
    }
    void onIdleEnd(pacache::DiskId disk, std::size_t mode,
                   pacache::Time idle) override
    {
        Span s(clk);
        in.onIdleEnd(disk, mode, idle);
    }
    const char *name() const override { return in.name(); }

  private:
    pacache::Dpm &in;
    LayerClock &clk;
};

/** Workloads; each fills @p report for the mode opt.trace picks. */
void runFig6Opg(const Options &opt, Report &report);
void runShardedWtdu(const Options &opt, Report &report);
void runServePaLru(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
