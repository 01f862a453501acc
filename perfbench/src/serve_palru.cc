/**
 * @file
 * Workload serve-palru-paced: the striped serving front-end.
 * ServeServer with 4 stripes and 3 worker threads, fed by one
 * benchmark-side producer thread; PA-LRU, the practical DPM,
 * write-back and a 32768-block cache. The disk layout and load split
 * are OltpParams' (busy and quiet disks, their inter-arrival ratio and
 * footprints); requests are Zipf(0.9) over each disk's footprint with
 * 30% writes, Poisson arrivals at a simulated 20 req/s, so the
 * simulated disks really idle, spin down and wake.
 *
 * Untraced runs measure the closed saturation phase (the producer
 * submits as fast as the rings accept). Traced runs add the
 * thread-scaling point, an open loop paced on the host clock at a
 * few fixed offered rates (latency timed from each request's due
 * time, so a stall also charges the requests queued behind it), and
 * a single-threaded replica of the stripes on the benchmark's timed
 * stack, which must reproduce the server's merged result exactly.
 */

#include <algorithm>
#include <iostream>

#include "serve/server.hh"
#include "trace/workloads.hh"
#include "util/random.hh"

#include "common.hh"
#include "stack.hh"

namespace perfbench
{

using namespace pacache;
using serve::ServeConfig;
using serve::ServeRequest;
using serve::ServeResult;
using serve::ServeServer;

namespace
{

constexpr std::size_t kShards = 4;
constexpr std::size_t kThreads = 3;
/**
 * Zipf(0.9) and 30% writes replace OltpParams' reuse probabilities
 * and write ratio; the rest of the mix is OltpParams'.
 */
constexpr double kZipfTheta = 0.9;
constexpr double kWriteShare = 0.3;
constexpr double kSimRate = 20.0; //!< simulated requests per second
/** Open-loop offered rates (M req/s) and the one p50/p99 report. */
constexpr double kRates[] = {0.25, 0.5, 1.0, 1.5};
constexpr double kFixedRate = 0.5;
constexpr double kSloSeconds = 1e-3; //!< p99 latency limit
/** Sanity ceiling on the simulated mean response time. */
constexpr double kSaneResponseMs = 1000.0;

/** The OLTP disk mix: which disks are busy and how the load splits. */
struct DiskMix
{
    std::size_t disks = 0;
    std::size_t busyDisks = 0;
    double busyShare = 0; //!< share of requests on busy disks
    std::size_t busyBlocks = 0;
    std::size_t quietBlocks = 0;

    DiskMix()
    {
        const OltpParams p;
        disks = p.numDisks;
        busyDisks = p.busyDisks;
        const double busy_rate =
            static_cast<double>(p.busyDisks) / p.busyInterarrivalMs;
        const double quiet_rate =
            static_cast<double>(p.numDisks - p.busyDisks) /
            p.quietInterarrivalMs;
        busyShare = busy_rate / (busy_rate + quiet_rate);
        busyBlocks = static_cast<std::size_t>(p.busyFootprint);
        quietBlocks = static_cast<std::size_t>(p.quietFootprint);
    }
};

const DiskMix kMix;

struct Stream
{
    std::vector<ServeRequest> reqs;
    std::size_t cacheBlocks = 32768;

    Time endTime(std::size_t n) const { return reqs[n - 1].time; }
};

Stream
makeStream(uint64_t seed, std::size_t n)
{
    const ZipfSampler busy(kMix.busyBlocks, kZipfTheta);
    const ZipfSampler quiet(kMix.quietBlocks, kZipfTheta);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    Stream s;
    s.reqs.resize(n);
    Time t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ServeRequest &r = s.reqs[i];
        t += rng.exponential(1.0 / kSimRate);
        r.time = t;
        if (rng.chance(kMix.busyShare)) {
            r.block = BlockId{static_cast<DiskId>(rng.below(kMix.busyDisks)),
                              static_cast<BlockNum>(busy.sample(rng))};
        } else {
            r.block = BlockId{
                static_cast<DiskId>(kMix.busyDisks +
                                    rng.below(kMix.disks - kMix.busyDisks)),
                static_cast<BlockNum>(quiet.sample(rng))};
        }
        r.write = rng.chance(kWriteShare);
        r.traceIndex = i;
        r.idx = i;
    }
    return s;
}

ServeConfig
serveConfig(const Stream &stream, std::size_t threads)
{
    ServeConfig cfg;
    cfg.exp.policy = PolicyKind::PALRU;
    cfg.exp.dpm = DpmChoice::Practical;
    cfg.exp.storage.writePolicy = WritePolicy::WriteBack;
    cfg.exp.cacheBlocks = stream.cacheBlocks;
    cfg.numDisks = kMix.disks;
    cfg.shards = kShards;
    cfg.threads = threads;
    return cfg;
}

/** One closed saturation phase over the whole stream. */
struct Saturation
{
    double seconds = 0;
    double finishSeconds = 0;
    double submitWait = 0;
    uint64_t blocked = 0; //!< submits that took over 2 us
    ServeResult res;
};

Saturation
saturate(const Stream &stream, std::size_t threads, bool time_submits)
{
    ServeServer server(serveConfig(stream, threads));
    server.start();
    Saturation out;
    const Clock::time_point t0 = Clock::now();
    for (const ServeRequest &req : stream.reqs) {
        if (!time_submits) {
            server.submit(req);
            continue;
        }
        const uint64_t s0 = nowNs();
        server.submit(req);
        const uint64_t ns = nowNs() - s0;
        out.submitWait += static_cast<double>(ns) * 1e-9;
        out.blocked += ns > 2000;
    }
    const Clock::time_point t1 = Clock::now();
    out.res = server.finish(stream.endTime(stream.reqs.size()));
    out.seconds = secondsSince(t0);
    out.finishSeconds = secondsSince(t1);
    return out;
}

/** One open-loop phase paced on the host clock. */
struct Paced
{
    double p50 = 0;
    double p99 = 0;
    double lateP99 = 0;
    double lastLate = 0;
    ServeResult res;
};

Paced
pace(const Stream &stream, std::size_t n, double mrps)
{
    ServeServer server(serveConfig(stream, kThreads));
    server.start();
    const double period_ns = 1e3 / mrps;
    std::vector<double> late(n);
    const uint64_t base = nowNs() + 1000000; // first due in 1 ms
    for (std::size_t i = 0; i < n; ++i) {
        const uint64_t due =
            base + static_cast<uint64_t>(static_cast<double>(i) *
                                         period_ns);
        uint64_t now = nowNs();
        while (now < due)
            now = nowNs();
        late[i] = static_cast<double>(now - due) * 1e-9;
        ServeRequest req = stream.reqs[i];
        req.submitNs = due; // latency counts from the due time
        server.submit(req);
    }
    Paced out;
    out.res = server.finish(stream.endTime(n));
    out.p50 = out.res.latency.quantile(0.5);
    out.p99 = out.res.latency.quantile(0.99);
    out.lateP99 = quantile(late, 0.99);
    out.lastLate = late.back();
    return out;
}

/** The stripes replayed single-threaded on the benchmark's stack. */
struct Replica
{
    double wall = 0;
    double kernel = 0; //!< step() + finish() time
    StackClocks clocks;
    uint64_t epochs = 0;
    uint64_t flips = 0;
    ExperimentResult result;
};

Replica
replicate(const Stream &stream, bool timed)
{
    Replica out;
    const Clock::time_point t0 = Clock::now();
    const ServeConfig cfg = serveConfig(stream, 1);
    std::vector<std::unique_ptr<Stack>> stripes;
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::size_t cap = cfg.exp.cacheBlocks / kShards +
                                (s < cfg.exp.cacheBlocks % kShards);
        stripes.push_back(
            std::make_unique<Stack>(cfg.exp, kMix.disks, cap, timed));
    }
    std::vector<Time> last(kShards, 0);
    std::vector<uint64_t> seen_epochs(kShards, 0);
    std::vector<std::vector<bool>> prio(kShards,
                                        std::vector<bool>(kMix.disks, false));
    const Clock::time_point k0 = Clock::now();
    for (const ServeRequest &req : stream.reqs) {
        const std::size_t s = req.block.disk % kShards;
        const Time t = std::max(req.time, last[s]);
        last[s] = t;
        stripes[s]->step(BlockAccess{t, req.block, req.write,
                                     static_cast<std::size_t>(
                                         req.traceIndex)},
                         static_cast<std::size_t>(req.idx));
        const PaClassifier *cls = stripes[s]->classifier();
        if (timed && cls->epochsCompleted() != seen_epochs[s]) {
            seen_epochs[s] = cls->epochsCompleted();
            for (DiskId d = static_cast<DiskId>(s); d < kMix.disks;
                 d += kShards) {
                out.flips += cls->isPriority(d) != prio[s][d];
                prio[s][d] = cls->isPriority(d);
            }
        }
    }
    std::vector<ExperimentResult> parts;
    for (auto &stripe : stripes) {
        stripe->finish(stream.endTime(stream.reqs.size()));
        out.clocks.policy += stripe->clocks().policy;
        out.clocks.dpm += stripe->clocks().dpm;
        out.epochs += stripe->classifier()->epochsCompleted();
    }
    out.kernel = secondsSince(k0);
    for (auto &stripe : stripes)
        parts.push_back(stripe->result());
    out.result = mergeOwned(parts, kMix.disks);
    out.wall = secondsSince(t0);
    return out;
}

} // namespace

void
runServePaLru(const Options &opt, Report &report)
{
    const std::size_t n = opt.tiny ? 40000 : 2000000;
    const std::size_t paced_n = std::min<std::size_t>(n, 200000);

    Stream stream;
    const std::vector<double> setups =
        repeatFor(opt.tiny ? 0 : kSetupSeconds, kSetupReps,
                  [&] { stream = makeStream(opt.seed, n); });
    stream.cacheBlocks = opt.tiny ? 2048 : 32768; // tiny still evicts
    std::cout << "serve-palru-paced: " << n << " requests, " << kMix.disks
              << " disks (" << kMix.busyDisks << " busy, "
              << kMix.busyShare * 100 << "% of requests), " << kShards
              << " stripes, " << kThreads
              << " workers + 1 producer, simulated " << kSimRate
              << " req/s, " << stream.endTime(n) << " s simulated, seed "
              << opt.seed << '\n';

    ExperimentResult ref;
    bool have_ref = false;
    auto gate = [&](const ServeResult &r, std::size_t count,
                    const std::string &what) {
        const ExperimentResult &x = r.result;
        uint64_t processed = 0;
        for (const auto &s : r.shards)
            processed += s.requests;
        report.check(processed == count && x.cache.accesses == count,
                     what + ": processed != submitted");
        report.check(r.ledgerConserves,
                     what + " breaks ledger conservation");
        if (count != n)
            return;
        if (!have_ref) {
            ref = x;
            have_ref = true;
            // Regime precondition: the disks must idle, spin down
            // and wake, with a sane simulated response time.
            report.check(x.energy.spinUps > 0,
                         "no spin-ups: not the energy-saving regime");
            report.check(x.responses.mean() * 1e3 < kSaneResponseMs,
                         "simulated disks overloaded (mean response " +
                             std::to_string(x.responses.mean() * 1e3) +
                             " ms)");
        }
        report.check(Fingerprint(x) == Fingerprint(ref),
                     what + " differs from the first run");
    };

    if (!opt.trace) {
        std::vector<double> mrps;
        const std::vector<double> secs = repeatFor(opt.seconds, 3, [&] {
            const Saturation s = saturate(stream, kThreads, false);
            gate(s.res, n, "saturation phase");
            mrps.push_back(static_cast<double>(n) / s.seconds / 1e6);
        });
        printReps("set-up", setups);
        printReps("saturation phase (incl. server build)", secs);
        report.metric("setup_s", median(setups));
        report.metric("throughput_mrps", median(mrps));
        report.metric("peak_rss_mb", peakRssMb());
        simMetrics(report, ref);
        // The server's plumbing (rings, workers, merge) against the
        // stripes replayed in order on one thread.
        report.check(Fingerprint(replicate(stream, false).result) ==
                         Fingerprint(ref),
                     "single-threaded replica differs from the server");
        return;
    }

    // Thread scaling: 3 workers vs 1, untimed submits.
    std::vector<double> t3;
    std::vector<double> t1;
    for (int i = 0; i < 3; ++i) {
        Saturation s = saturate(stream, kThreads, false);
        gate(s.res, n, "saturation phase (3 workers)");
        t3.push_back(static_cast<double>(n) / s.seconds / 1e6);
        s = saturate(stream, 1, false);
        gate(s.res, n, "saturation phase (1 worker)");
        t1.push_back(static_cast<double>(n) / s.seconds / 1e6);
    }
    report.metric("serve.scaling_t3_over_t1", median(t3) / median(t1));

    // Submit-path costs from one phase with timed submits.
    {
        const Saturation s = saturate(stream, kThreads, true);
        gate(s.res, n, "saturation phase (timed submits)");
        report.metric("serve.submit_blocked_ratio",
                      static_cast<double>(s.blocked) /
                          static_cast<double>(n));
        report.metric("serve.submit_wait_s", s.submitWait);
        report.metric("serve.finish_s", s.finishSeconds);
        double most = 0;
        for (const auto &sh : s.res.shards)
            most = std::max(most, static_cast<double>(sh.requests));
        report.metric("serve.shard_imbalance",
                      most / (static_cast<double>(n) / kShards));
    }

    // Open loop at fixed offered rates over a common prefix: every
    // phase must produce the same simulated result.
    double rate_at_slo = 0;
    Fingerprint paced_ref;
    bool have_paced = false;
    for (const double rate : kRates) {
        const Paced p = pace(stream, paced_n, rate);
        gate(p.res, paced_n, "paced phase");
        const Fingerprint fp(p.res.result);
        if (!have_paced) {
            paced_ref = fp;
            have_paced = true;
        }
        report.check(fp == paced_ref,
                     "paced phase differs across offered rates");
        std::cout << "  paced " << rate << " M req/s: p50 "
                  << p.p50 * 1e6 << " us, p99 " << p.p99 * 1e6
                  << " us, generator late p99 " << p.lateP99 * 1e6
                  << " us\n";
        if (p.p99 <= kSloSeconds && p.lastLate <= kSloSeconds)
            rate_at_slo = std::max(rate_at_slo, rate);
        if (rate == kFixedRate) {
            report.metric("serve.p50_us", p.p50 * 1e6);
            report.metric("serve.p99_us", p.p99 * 1e6);
            report.metric("serve.gen_late_p99_us", p.lateP99 * 1e6);
        }
    }
    report.metric("serve.rate_at_slo_mrps", rate_at_slo);

    // The kernel breakdown: the stripes replayed on the timed stack.
    std::vector<double> plain;
    std::vector<Replica> traced;
    const Clock::time_point start = Clock::now();
    while (traced.empty() || secondsSince(start) < opt.seconds / 2) {
        const Replica u = replicate(stream, false);
        plain.push_back(u.wall);
        report.check(Fingerprint(u.result) == Fingerprint(ref),
                     "untraced replica differs from the server");
        traced.push_back(replicate(stream, true));
        report.check(Fingerprint(traced.back().result) == Fingerprint(ref),
                     "traced replica differs from the server");
    }
    std::vector<double> walls;
    for (const Replica &r : traced)
        walls.push_back(r.wall);
    const double mid = quantile(walls, 0.5);
    const Replica *r = &traced[0];
    for (const Replica &x : traced) {
        if (x.wall == mid)
            r = &x;
    }
    const double policy = r->clocks.policy.seconds();
    const double dpm = r->clocks.dpm.seconds();
    const double self = r->kernel - policy - dpm;
    report.metric("cache.policy_s", policy);
    report.metric("cache.policy_ns_per_access",
                  policy * 1e9 / static_cast<double>(n));
    report.metric("disk.dpm_s", dpm);
    report.metric("cache.policy_calls",
                  static_cast<double>(r->clocks.policy.calls));
    report.metric("disk.dpm_calls",
                  static_cast<double>(r->clocks.dpm.calls));
    report.metric("core.storage_self_s", self);
    report.metric("core.pa.epochs", static_cast<double>(r->epochs));
    report.metric("core.pa.class_flips", static_cast<double>(r->flips));
    counterMetrics(report, ref);
    report.metric("obs.traced_wall_s", r->wall);
    report.metric("obs.layer_sum_ratio", (policy + dpm + self) / r->wall);
    report.metric("obs.trace_overhead_ratio", median(walls) / median(plain));
}

} // namespace perfbench
