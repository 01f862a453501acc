/**
 * @file
 * Workload fig6-opg: the paper's headline policy at 10x the paper's
 * OLTP duration. Single-threaded in-memory runExperiment() with OPG,
 * the practical DPM, write-back and a 32768-block cache.
 */

#include <iostream>

#include "core/opg_ref.hh"
#include "trace/workloads.hh"

#include "common.hh"
#include "stack.hh"

namespace perfbench
{

using namespace pacache;

namespace
{

ExperimentConfig
fig6Config(bool tiny)
{
    ExperimentConfig cfg;
    cfg.policy = PolicyKind::OPG;
    cfg.dpm = DpmChoice::Practical;
    cfg.storage.writePolicy = WritePolicy::WriteBack;
    cfg.cacheBlocks = tiny ? 2048 : 32768; // tiny still evicts
    return cfg;
}

/** The replay with the retained reference OPG instead of the fast one. */
ExperimentResult
referenceReplay(const Trace &trace, const ExperimentConfig &cfg,
                std::size_t num_disks)
{
    Stack stack(cfg, num_disks, cfg.cacheBlocks, false,
                [](const PowerModel &pm, const PaClassifier *) {
                    return std::make_unique<ReferenceOpgPolicy>(
                        pm, DpmKind::Practical,
                        pm.mode(firstEnvelopeNap(pm)).transitionEnergy());
                });
    stack.run(trace);
    return stack.result();
}

uint64_t
blockAccesses(const Trace &trace)
{
    uint64_t n = 0;
    for (const TraceRecord &rec : trace)
        n += rec.numBlocks;
    return n;
}

/** Layer times of one traced pipeline run. */
struct Breakdown
{
    double wall = 0;
    double gen = 0;
    double expand = 0;
    double prepare = 0;
    double policy = 0;
    double dpm = 0;
    double storageSelf = 0;
    uint64_t policyCalls = 0;
    uint64_t dpmCalls = 0;

    double layerSum() const
    {
        return gen + expand + prepare + policy + dpm + storageSelf;
    }
};

} // namespace

void
runFig6Opg(const Options &opt, Report &report)
{
    OltpParams params;
    params.duration = opt.tiny ? 1800 : 72000;
    params.seed = opt.seed;
    const ExperimentConfig cfg = fig6Config(opt.tiny);

    // Set-up: synthesize the trace repeatedly, report the median.
    Trace trace;
    const std::vector<double> setups =
        repeatFor(opt.tiny ? 0 : kSetupSeconds, kSetupReps, [&] {
            Trace t = makeOltpTrace(params);
            if (trace.empty()) {
                trace = std::move(t);
            } else {
                report.check(t.size() == trace.size() &&
                                 t.endTime() == trace.endTime(),
                             "trace synthesis is not deterministic");
            }
        });
    const uint64_t accesses = blockAccesses(trace);
    const std::size_t num_disks =
        std::max<std::size_t>(trace.numDisks(), 1);
    std::cout << "fig6-opg: " << trace.size() << " requests, "
              << accesses << " block accesses, " << num_disks
              << " disks, seed " << opt.seed << '\n';

    ExperimentResult ref;
    bool have_ref = false;
    // Every replay must reproduce the first one exactly.
    auto gate = [&](const ExperimentResult &r, const char *what) {
        if (!have_ref) {
            ref = r;
            have_ref = true;
        }
        report.check(Fingerprint(r) == Fingerprint(ref),
                     std::string(what) + " differs from the first run");
        report.check(ledgerConserves(r),
                     std::string(what) + " breaks ledger conservation");
        report.check(r.cache.accesses == accesses &&
                         r.cache.hits + r.cache.misses == accesses,
                     std::string(what) + " lost accesses");
    };

    if (!opt.trace) {
        const std::vector<double> secs =
            repeatFor(opt.seconds, 3, [&] {
                gate(runExperiment(trace, cfg), "replay");
            });
        printReps("set-up", setups);
        printReps("replay", secs);
        report.metric("setup_s", median(setups));
        report.metric("throughput_mrps",
                      static_cast<double>(trace.size()) / median(secs) /
                          1e6);
        report.metric("peak_rss_mb", peakRssMb());
        simMetrics(report, ref);
        // After the peak-RSS sample: the reference keeps more state.
        gate(referenceReplay(trace, cfg, num_disks), "reference OPG");
        return;
    }

    // Traced mode: alternate the untraced pipeline (synthesis +
    // runExperiment) with the traced one (synthesis + the benchmark's
    // own stack with timed policy and DPM), at least twice each.
    std::vector<double> untraced;
    std::vector<Breakdown> traced;
    const Clock::time_point start = Clock::now();
    while (traced.size() < 2 || secondsSince(start) < opt.seconds) {
        {
            const Clock::time_point t0 = Clock::now();
            const Trace t = makeOltpTrace(params);
            const ExperimentResult r = runExperiment(t, cfg);
            untraced.push_back(secondsSince(t0));
            gate(r, "untraced replay");
        }
        Breakdown b;
        const Clock::time_point t0 = Clock::now();
        const Trace t = makeOltpTrace(params);
        b.gen = secondsSince(t0);
        Stack stack(cfg, num_disks, cfg.cacheBlocks, true);
        stack.run(t);
        const ExperimentResult r = stack.result();
        b.wall = secondsSince(t0);
        gate(r, "traced replay");
        b.expand = stack.phaseSeconds("expand_trace");
        b.prepare = stack.phaseSeconds("oracle_precompute");
        b.policy = stack.clocks().policy.seconds();
        b.dpm = stack.clocks().dpm.seconds();
        b.policyCalls = stack.clocks().policy.calls;
        b.dpmCalls = stack.clocks().dpm.calls;
        b.storageSelf = stack.phaseSeconds("replay") +
                        stack.phaseSeconds("drain_finalize") -
                        b.policy - b.dpm;
        traced.push_back(b);
    }

    std::vector<double> walls;
    for (const Breakdown &b : traced)
        walls.push_back(b.wall);
    // The breakdown reported is the run with the median wall time.
    const double mid = quantile(walls, 0.5);
    Breakdown b = traced[0];
    for (const Breakdown &x : traced) {
        if (x.wall == mid)
            b = x;
    }
    report.metric("trace.gen_s", b.gen);
    report.metric("trace.expand_s", b.expand);
    report.metric("cache.prepare_s", b.prepare);
    report.metric("cache.policy_s", b.policy);
    report.metric("cache.policy_ns_per_access",
                  b.policy * 1e9 / static_cast<double>(accesses));
    report.metric("core.storage_self_s", b.storageSelf);
    report.metric("disk.dpm_s", b.dpm);
    report.metric("cache.policy_calls", static_cast<double>(b.policyCalls));
    report.metric("disk.dpm_calls", static_cast<double>(b.dpmCalls));
    counterMetrics(report, ref);
    report.metric("obs.traced_wall_s", b.wall);
    report.metric("obs.layer_sum_ratio", b.layerSum() / b.wall);
    report.metric("obs.trace_overhead_ratio",
                  median(walls) / median(untraced));
    gate(referenceReplay(trace, cfg, num_disks), "reference OPG");
}

} // namespace perfbench
