#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "obs/energy_ledger.hh"
#include "util/mem.hh"

namespace perfbench
{

using namespace pacache;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
peakRssMb()
{
    return static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
}

void
printReps(const char *what, const std::vector<double> &secs)
{
    std::cout << "  " << what << ": " << secs.size() << " reps, min "
              << *std::min_element(secs.begin(), secs.end())
              << " s, median " << median(secs) << " s, max "
              << *std::max_element(secs.begin(), secs.end()) << " s\n";
}

void
Report::metric(const std::string &name, double value)
{
    values[name] = value;
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cout << "CHECK FAILED: " << what << '\n';
    }
    return ok;
}

void
Report::print() const
{
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : values) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v);
        std::cout << "  " << name << " = " << num << '\n';
        json += first ? "" : ", ";
        first = false;
        json += "\"" + name + "\": " + num;
    }
    json += "}}";
    std::cout << json << std::endl;
}

Fingerprint::Fingerprint(const ExperimentResult &r)
    : accesses(r.cache.accesses), hits(r.cache.hits),
      misses(r.cache.misses), evictions(r.cache.evictions),
      coldMisses(r.cache.coldMisses), spinUps(r.energy.spinUps),
      spinDowns(r.energy.spinDowns), logWrites(r.logWrites),
      responses(r.responses.count()), totalEnergy(r.totalEnergy),
      responseSum(r.responses.sum())
{
}

bool
ledgerConserves(const ExperimentResult &r)
{
    return obs::ledgerMaxRelError(r.perDisk) <=
           obs::kLedgerConservationTol;
}

void
simMetrics(Report &report, const ExperimentResult &r)
{
    report.metric("sim_energy_j", r.totalEnergy);
    report.metric("sim_hit_ratio", r.cache.hitRatio());
    report.metric("sim_mean_response_ms", r.responses.mean() * 1e3);
}

double
spanCostNs()
{
    constexpr int kSpans = 1 << 20;
    LayerClock clk;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        Span s(clk);
    return secondsSince(t0) * 1e9 / kSpans;
}

void
counterMetrics(Report &report, const ExperimentResult &r)
{
    report.metric("cache.hit_ratio", r.cache.hitRatio());
    report.metric("cache.evictions",
                  static_cast<double>(r.cache.evictions));
    report.metric("cache.cold_misses",
                  static_cast<double>(r.cache.coldMisses));
    report.metric("disk.spin_ups", static_cast<double>(r.energy.spinUps));
    report.metric("disk.spin_downs",
                  static_cast<double>(r.energy.spinDowns));
    report.metric("disk.spinup_energy_share",
                  r.totalEnergy > 0
                      ? r.energy.spinUpEnergy / r.totalEnergy
                      : 0.0);
    report.metric("core.wtdu.log_writes",
                  static_cast<double>(r.logWrites));
    report.metric("obs.span_cost_ns", spanCostNs());
}

} // namespace perfbench
