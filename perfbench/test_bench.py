#!/usr/bin/env python3
"""The benchmark's own tests, in quick mode (about a minute in total).

    python3 perfbench/test_bench.py

Run from the root of a checkout.  Checks that every metric BENCHMARK.json
names prints with its unit, that no op fails at two seeds, that a
corrupted reference verdict is caught, and that the deterministic
counters repeat exactly across two runs.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("online-mmul", "trace-analysis", "serve-stream")

# Per-layer counters that must repeat exactly from run to run at one seed.
DETERMINISTIC = (
    "exec.strands", "shadow.raw_events", "interval.intervals", "interval.coal_sorts",
    "trace.collected", "treap.writer_visits", "treap.lreader_visits", "treap.rreader_visits",
    "treap.slowpath_hits", "detect.races", "predict.candidates", "predict.windows",
    "predict.pair_scans", "predict.probe_skips", "gc.minor_words",
)


def bench(workload, seed, trace, *extra):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return r.returncode, result, r.stdout + r.stderr


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class QuickMode(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_metric_prints_and_nothing_fails(self):
        s = spec()
        for w in WORKLOADS:
            for seed in (1, 2):
                code, result, log = bench(w, seed, 0)
                with self.subTest(workload=w, seed=seed):
                    self.assertEqual(code, 0, log)
                    self.assertTrue(result["correct"], log)
                    self.assertEqual(result["failed"], 0, log)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, s["end_to_end"])
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)
            code, result, log = bench(w, 1, 1)
            with self.subTest(workload=w, trace=1):
                self.assertEqual(code, 0, log)
                self.assertEqual(result["failed"], 0, log)
                self.check_metrics(result, s["per_layer"])
                self.assertEqual(result["metrics"]["selfcheck.counter_drift"]["value"], 0, log)

    def test_corrupted_reference_is_caught(self):
        for w in WORKLOADS:
            code, result, log = bench(w, 1, 0, "--corrupt-reference")
            with self.subTest(workload=w):
                self.assertNotEqual(code, 0, log)
                self.assertIsNotNone(result, log)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_counters_repeat_across_runs(self):
        for w in ("online-mmul", "trace-analysis"):
            runs = [bench(w, 3, 1) for _ in range(2)]
            with self.subTest(workload=w):
                for code, _, log in runs:
                    self.assertEqual(code, 0, log)
                a, b = (r[1]["metrics"] for r in runs)
                for name in DETERMINISTIC:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
