#!/usr/bin/env python3
"""Host-time benchmark of the simulator: build, run one workload, report.

    python3 perfbench/run.py --workload W [--seed N] --seconds S --trace 0|1

Run from anywhere inside a checkout. Builds perfbench/perfbench.exe with
dune (build directory .bench_build at the checkout root), runs it for
about S seconds, and prints its info lines ("# ...") followed, as the
last line, by one JSON object with the keys correct, attempted, failed
and metrics. The metrics are every end_to_end metric of BENCHMARK.json
with --trace 0, and every per_layer metric with --trace 1. A per-layer
metric the workload names as not applicable (a layer it has no call
boundary into) reports 0; any other metric the program does not report
is an error. The seed defaults to the one perfbench/golden.json pins
digests for. Exits non-zero without printing a result when the build or
the run fails, or when the program's metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def golden_seed():
    with open(os.path.join(HERE, "golden.json")) as f:
        return json.load(f)["seed"]


def build():
    """Build the benchmark from source; True on success. The shared dune
    cache stays off so the build writes nothing outside the checkout."""
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def run_exe(workload, seed, seconds, trace, extra=()):
    """Run the built benchmark; (info lines, result dict) or None."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT_DIR, *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        print(f"perfbench: exit code {r.returncode}", file=sys.stderr)
        return None
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return None


def conform(result, declared):
    """The result with exactly the declared metrics, or an error string.
    Metrics the program names as not applicable are reported as 0."""
    got = dict(result["metrics"])
    absent = set(result.get("not_applicable", []))
    for name in sorted(absent):
        if name in got:
            return f"metric {name} both reported and not applicable"
        if name not in [m["name"] for m in declared]:
            return f"not-applicable metric {name} not declared"
    metrics = {}
    for m in declared:
        v = got.pop(m["name"], None)
        if v is None and m["name"] in absent:
            v = {"value": 0.0, "unit": m["unit"]}
        if v is None:
            return f"metric {m['name']} missing"
        if v.get("unit") != m["unit"]:
            return f"metric {m['name']} has unit {v.get('unit')}, not {m['unit']}"
        if not isinstance(v.get("value"), (int, float)):
            return f"metric {m['name']} has no finite value"
        metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    if got:
        return "metrics not declared in BENCHMARK.json: " + ", ".join(sorted(got))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        s = spec()
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if a.workload not in [w["name"] for w in s["workloads"]]:
        print(f"perfbench: unknown workload {a.workload}", file=sys.stderr)
        return 2
    if a.seed is None:
        try:
            a.seed = golden_seed()
        except (OSError, ValueError, KeyError) as e:
            print(f"perfbench: cannot read golden.json: {e}", file=sys.stderr)
            return 2
    if not build():
        return 1
    out = run_exe(a.workload, a.seed, a.seconds, a.trace)
    if out is None:
        return 1
    info, result = out
    declared = s["per_layer"] if a.trace else s["end_to_end"]
    final = conform(result, declared)
    if isinstance(final, str):
        print(f"perfbench: {final}", file=sys.stderr)
        return 1
    for line in info:
        print(line)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
