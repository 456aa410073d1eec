#!/usr/bin/env python3
"""Tests of the benchmark itself, at a small size.

    python3 perfbench/test_perfbench.py        (from the repository root)

Checks that every metric BENCHMARK.json names is emitted with its unit,
that sim-time metrics and model digests repeat exactly (run to run, and
traced against untraced), and that a held-out seed fails no op.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seconds", "0", "--scale-div", "50"]
SEED = 7
HELD_OUT_SEED = 424242
# Deterministic for a seed: must repeat bit for bit.
SIM_METRICS = ("sim_ops_per_s", "sim_lat_us_mean", "sim_lat_us_p50",
               "sim_lat_us_p99", "write_amp")
# Printed on every run, beside the result line.
PRINTED = ("ops_per_s", "events_per_s", "cpu_ns_per_op", "allocs_per_op",
           "peak_rss_mb", "setup_s", "sim_ops_per_s", "sim_lat_us_mean",
           "sim_lat_us_p50", "sim_lat_us_p99", "write_amp", "ops_attempted",
           "ops_failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Run:
    """One benchmark invocation, parsed."""

    def __init__(self, workload, seed, trace):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)] + SMALL
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        self.returncode = done.returncode
        lines = done.stdout.strip().splitlines()
        self.result = json.loads(lines[-1])
        self.printed = {}   # name -> (value text, unit)
        self.digest = None
        for line in lines:
            parts = line.split()
            if parts and parts[0] == "metric":
                self.printed[parts[1]] = (parts[2], parts[3])
            elif parts and parts[0] == "digest":
                self.digest = parts[2]


_CACHE = {}


def run(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _CACHE:
        _CACHE[key] = Run(workload, seed, trace)
    return _CACHE[key]


class BenchmarkTest(unittest.TestCase):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    def test_every_metric_emitted_with_unit(self):
        for w in self.workloads:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    r = run(w, SEED, trace)
                    self.assertEqual(r.returncode, 0)
                    self.assertEqual(set(r.result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    metrics = r.result["metrics"]
                    for m in self.spec[group]:
                        self.assertIn(m["name"], metrics)
                        self.assertEqual(metrics[m["name"]]["unit"],
                                         m["unit"])
                    for name in PRINTED:
                        self.assertIn(name, r.printed)
                        self.assertTrue(r.printed[name][1])

    def test_sim_metrics_and_digest_repeat(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                a = run(w, SEED, 0)
                b = Run(w, SEED, 0)  # a fresh process, not the cache
                traced = run(w, SEED, 1)
                self.assertIsNotNone(a.digest)
                self.assertEqual(a.digest, b.digest)
                self.assertEqual(a.digest, traced.digest)
                for m in SIM_METRICS:
                    self.assertEqual(a.printed[m], b.printed[m])
                    self.assertEqual(a.printed[m], traced.printed[m])

    def test_seed_changes_the_inputs(self):
        a = run("aged_mix", SEED, 0)
        b = run("aged_mix", HELD_OUT_SEED, 0)
        self.assertNotEqual(a.digest, b.digest)

    def test_held_out_seed_fails_nothing(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                r = run(w, HELD_OUT_SEED, 0)
                self.assertEqual(r.returncode, 0)
                self.assertTrue(r.result["correct"])
                self.assertEqual(r.result["failed"], 0)
                self.assertGreater(r.result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
