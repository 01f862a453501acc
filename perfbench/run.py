#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the pacache library and the pacache_perfbench program from source into
.bench_build/perfbench (first run only; later runs are an up-to-date
check), then runs the workload in a fresh process so its peak RSS is
its own. Its stdout is passed through; the last line is the
JSON record {"correct", "attempted", "failed", "metrics"}, with the
units of BENCHMARK.json added to the program's {name: value} pairs.
--trace 0 reports the end-to-end metrics, every one of which must be
measured; --trace 1 the per-layer breakdown, where a layer the
workload leaves idle reads 0. A name outside BENCHMARK.json is an
error. --tiny shrinks every workload for the self-tests.

Exit status: 0 with a result line, non-zero without one (build
failure, crash, malformed record).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pacache_perfbench")
WORKLOADS = ("fig6-opg", "scaled-sharded-wtdu", "serve-palru-paced")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "pacache_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the record.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def units(trace):
    """{name: unit} of the metrics one mode reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    build()
    # Each run gets its own scratch directory, so concurrent runs from
    # one checkout do not delete each other's files.
    tmp_dir = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.dirname(BUILD_DIR))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("pacache_perfbench exited with status %d" % proc.returncode)
    record = json.loads(lines[-1])
    measured = record["metrics"]
    want = units(args.trace == 1)
    missing = sorted(set(want) - set(measured))
    extra = sorted(set(measured) - set(want))
    if extra or (missing and args.trace == 0):
        sys.stderr.write(proc.stdout)
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    record["metrics"] = {name: {"value": measured.get(name, 0.0),
                                "unit": unit}
                         for name, unit in want.items()}
    print("\n".join(lines[:-1]))
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
