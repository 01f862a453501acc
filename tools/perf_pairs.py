#!/usr/bin/env python3
"""Compare two revisions on the repository benchmark in alternating pairs.

    tools/perf_pairs.py BASE CHANGE [--pairs 10] [--workload W ...]
                        [--seed 1] [--seconds 20] [--trace 0|1]
                        [--work-dir DIR] [--json OUT]

BASE and CHANGE are git revisions of this repository (anything
`git rev-parse` accepts), or "." for the working tree as it is now,
uncommitted edits included. Each revision is exported with
`git archive` into its own directory under --work-dir (default: a
`pacache-perf-pairs` folder in the system temp directory, outside the
repository), and perfbench/run.py there builds its own copy of the
library. "." runs in place, building into the repository's
.bench_build.

For every workload the script runs N pairs, one run of each side per
pair. The side that goes first alternates from pair to pair: on a
shared host the first run of a pair can read very differently from the
second (on scaled-sharded-wtdu ~0.75 against ~1.5 Mreq/s), so a fixed
order would bias every pair the same way.

Each run's metrics go to stderr as it finishes. At the end it
prints, per metric, each side's median and interquartile range, the
median change, and how many pairs the change side won (by the
metric's "better" direction in BENCHMARK.json). It also checks that
every run reported "correct": true with no failed checks and that the
sim_* values are identical across all runs of both sides; the exit
status is 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig6-opg", "scaled-sharded-wtdu", "serve-palru-paced")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def checkout(rev, work_dir):
    """Directory holding the sources of @p rev ("." = the working tree)."""
    if rev == ".":
        return ROOT
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(work_dir, sha[:12])
    if not os.path.isdir(os.path.join(path, "src")):
        os.makedirs(path, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("perf_pairs: git archive %s failed" % rev)
    return path


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perf_pairs: %s failed (status %d)"
                 % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def directions():
    """{metric name: "higher" | "lower"} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(workload, runs, better):
    """Print one workload's table; @return the failed checks."""
    problems = []
    for side in ("base", "change"):
        for r in runs[side]:
            if not r["correct"] or r["failed"] != 0:
                problems.append("%s %s: correct=%s failed=%d"
                                % (workload, side, r["correct"],
                                   r["failed"]))
    sims = {json.dumps({k: v["value"] for k, v in r["metrics"].items()
                        if k.startswith("sim_")}, sort_keys=True)
            for side in ("base", "change") for r in runs[side]}
    if len(sims) > 1:
        problems.append("%s: sim_* values differ between runs" % workload)

    print("\n== %s: %d pairs ==" % (workload, len(runs["base"])))
    print("%-32s %12s %10s %12s %10s %8s %6s"
          % ("metric", "base med", "base IQR", "change med",
             "chg IQR", "delta", "wins"))
    for name in runs["base"][0]["metrics"]:
        if name.startswith("sim_"):
            continue
        b = [r["metrics"][name]["value"] for r in runs["base"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        bm, cm = statistics.median(b), statistics.median(c)
        bq, cq = quartiles(b), quartiles(c)
        higher = better.get(name, "higher") == "higher"
        wins = sum(1 for x, y in zip(b, c)
                   if (y > x if higher else y < x))
        delta = "%+.1f%%" % (100.0 * (cm - bm) / bm) if bm else "n/a"
        print("%-32s %12.4g %10.3g %12.4g %10.3g %8s %3d/%d"
              % (name, bm, bq[1] - bq[0], cm, cq[1] - cq[0], delta,
                 wins, len(b)))
    print("sim_* identical across all runs: %s" % (len(sims) == 1))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: all three")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", default=os.path.join(
        tempfile.gettempdir(), "pacache-perf-pairs"))
    ap.add_argument("--json", help="write every run's record here")
    args = ap.parse_args()

    trees = {"base": checkout(args.base, args.work_dir),
             "change": checkout(args.change, args.work_dir)}
    # Build both sides up front, one at a time: the first run of a
    # cold tree would otherwise time its own build.
    for tree in trees.values():
        subprocess.run([sys.executable,
                        os.path.join(tree, "perfbench", "run.py"),
                        "--workload", "fig6-opg", "--seed", "1",
                        "--seconds", "0.3", "--tiny"],
                       stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)

    better = directions()
    records = {}
    problems = []
    for workload in args.workload or WORKLOADS:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                r = run(trees[side], workload, args.seed, args.seconds,
                        args.trace)
                runs[side].append(r)
                print("%s pair %d %s: %s" % (
                    workload, i + 1, side,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in r["metrics"].items()
                             if not k.startswith("sim_"))),
                      file=sys.stderr, flush=True)
        records[workload] = runs
        problems += summarize(workload, runs, better)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "change": args.change,
                       "runs": records}, f, indent=1)
    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
