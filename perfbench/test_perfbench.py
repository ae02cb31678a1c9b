#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark, then checks metric names, that only metrics a
workload names as not applicable may be missing, that a perturbed
golden digest is reported as a failed op, and that traced and untraced
runs produce the same simulated outputs (and match the goldens) on
every workload. Takes about two minutes.
"""

import json
import os
import re
import unittest

import run as bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def digests(workload, seed, trace):
    path = os.path.join(bench.ROOT, bench.OUT_DIR,
                        f"{workload}-seed{seed}-trace{trace}.digests")
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert bench.build(), "build failed"
        cls.spec = bench.spec()
        with open(os.path.join(bench.HERE, "golden.json")) as f:
            cls.golden = json.load(f)

    def run_ok(self, workload, seed, trace, extra=()):
        out = bench.run_exe(workload, seed, 1, trace, extra)
        self.assertIsNotNone(out, f"{workload} trace {trace} did not run")
        return out

    def test_metric_names(self):
        declared = self.spec["end_to_end"] + self.spec["per_layer"]
        for m in declared:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            info, result = self.run_ok("vmm_sweep", 3, trace)
            for name in result["metrics"]:
                self.assertRegex(name, NAME)
            self.assertIsInstance(bench.conform(result, self.spec[section]),
                                  dict)

    def test_only_not_applicable_metrics_may_be_missing(self):
        declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "count"}]
        one = {"a": {"value": 1.5, "unit": "s"}}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": one}
        self.assertEqual(bench.conform(result, declared), "metric b missing")
        filled = bench.conform(dict(result, not_applicable=["b"]), declared)
        self.assertEqual(filled["metrics"]["b"], {"value": 0.0, "unit": "count"})
        self.assertIsInstance(
            bench.conform(dict(result, not_applicable=["a", "b"]), declared), str)

    def test_perturbed_golden_is_a_failed_op(self):
        golden = dict(self.golden)
        first = golden["vmm_sweep"][0]
        golden["vmm_sweep"] = ["0" * len(first) if first != "0" * len(first)
                               else "1" * len(first)] + golden["vmm_sweep"][1:]
        path = os.path.join(bench.ROOT, bench.OUT_DIR, "perturbed-golden.json")
        with open(path, "w") as f:
            json.dump(golden, f)
        info, result = self.run_ok("vmm_sweep", golden["seed"], 0,
                                   ("--golden", path))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("# failed op 0: simulated output differs from the "
                      "golden digest", info)

    def test_traced_and_untraced_agree_with_golden(self):
        seed = self.golden["seed"]
        for w in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=w):
                for trace in (0, 1):
                    info, result = self.run_ok(w, seed, trace)
                    self.assertEqual(result["failed"], 0, info)
                    self.assertTrue(result["correct"])
                plain, traced = digests(w, seed, 0), digests(w, seed, 1)
                n = min(len(plain), len(traced))
                self.assertGreater(n, 0)
                self.assertEqual(plain[:n], traced[:n])
                g = self.golden[w]
                for d, prefix in zip(plain, g):
                    self.assertTrue(d.startswith(prefix))


if __name__ == "__main__":
    unittest.main()
