#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at tiny workload sizes.

    python3 perfbench/tests/test_perfbench.py

Checks the shape of BENCHMARK.json, smoke-runs every
workload in both modes (every named metric present, the correctness
gate green), checks that the simulated values repeat exactly across
runs and between the untraced and traced runs, that two runs from one
checkout can overlap, and that the benchmark refuses to run without
the library sources. The first test run builds
the benchmark (about a minute).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("fig6-opg", "scaled-sharded-wtdu", "serve-palru-paced")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def run(workload, seed=1, trace=0, cwd=ROOT, script=None):
    """One tiny benchmark run; returns (exit status, stdout)."""
    cmd = [sys.executable, script or os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout


def record(workload, seed=1, trace=0):
    key = (workload, seed, trace)
    if key not in _cache:
        status, out = run(workload, seed, trace)
        assert status == 0, "run failed: %s\n%s" % (key, out)
        _cache[key] = json.loads(out.splitlines()[-1])
    return _cache[key]


def values(rec):
    return {k: v["value"] for k, v in rec["metrics"].items()}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            status, out = run("fig6-opg", cwd=tmp,
                              script=os.path.join(tmp, "perfbench",
                                                  "run.py"))
            self.assertNotEqual(status, 0)
            self.assertNotIn('"correct"', out)


class ConcurrencyTest(unittest.TestCase):
    def test_concurrent_runs_keep_their_scratch_files(self):
        # Two runs from one checkout: neither may delete the other's
        # .pct and shard files.
        cmd = [sys.executable, os.path.join(BENCH, "run.py"),
               "--workload", "scaled-sharded-wtdu", "--seed", "1",
               "--seconds", "0.3", "--trace", "1", "--tiny"]
        procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
                 for _ in range(2)]
        for p in procs:
            out, _ = p.communicate(timeout=900)
            self.assertEqual(p.returncode, 0)
            self.assertTrue(json.loads(out.splitlines()[-1])["correct"])


class SmokeTest(unittest.TestCase):
    def check(self, rec, trace):
        self.assertTrue(rec["correct"])
        self.assertEqual(rec["failed"], 0)
        self.assertGreaterEqual(rec["attempted"], 1)
        want = [m["name"] for m in SPEC["per_layer" if trace
                                         else "end_to_end"]]
        self.assertEqual(sorted(rec["metrics"]), sorted(want))

    def test_untraced_metrics_present_and_nonzero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rec = record(w)
                self.check(rec, 0)
                for name, v in values(rec).items():
                    self.assertGreater(v, 0, name)

    def test_traced_metrics_present(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rec = record(w, trace=1)
                self.check(rec, 1)
                v = values(rec)
                self.assertGreater(v["cache.policy_s"], 0)
                self.assertGreater(v["cache.evictions"], 0)
                self.assertGreater(v["obs.trace_overhead_ratio"], 0)

    def test_replay_layers_sum_to_wall(self):
        for w in ("fig6-opg", "scaled-sharded-wtdu"):
            with self.subTest(workload=w):
                ratio = values(record(w, trace=1))["obs.layer_sum_ratio"]
                self.assertAlmostEqual(ratio, 1.0, delta=0.05)


class DeterminismTest(unittest.TestCase):
    SIM = ("sim_energy_j", "sim_hit_ratio", "sim_mean_response_ms")

    def test_sim_values_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = values(record(w, seed=3))
                status, out = run(w, seed=3)
                self.assertEqual(status, 0)
                b = values(json.loads(out.splitlines()[-1]))
                for name in self.SIM:
                    self.assertEqual(a[name], b[name], name)

    def test_seed_changes_inputs(self):
        a = values(record("fig6-opg", seed=1))
        b = values(record("fig6-opg", seed=2))
        self.assertNotEqual(a["sim_energy_j"], b["sim_energy_j"])

    def test_traced_equals_untraced(self):
        # pacache_perfbench gates traced == untraced internally; here
        # the traced run's counters must also match the untraced record.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                u = values(record(w))
                t = values(record(w, trace=1))
                self.assertEqual(t["cache.hit_ratio"], u["sim_hit_ratio"])
                status, out = run(w, seed=1, trace=1)
                self.assertEqual(status, 0)
                t2 = values(json.loads(out.splitlines()[-1]))
                for name in ("cache.evictions", "disk.spin_ups",
                             "disk.dpm_calls", "core.pa.epochs"):
                    self.assertEqual(t[name], t2[name], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
