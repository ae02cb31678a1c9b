#!/usr/bin/env python3
"""Steadiness check: run each workload N times and show each end-to-end
metric's median and quartiles against its bound.

    python3 perfbench/steady.py [--runs N] [--workload W ...]
                                [--save FILE] [--against FILE]

Run k uses seed k (1..N) and run_seconds from BENCHMARK.json. For every
end_to_end metric of BENCHMARK.json it prints the median, the first and
third quartiles (as statistics.quantiles(values, n=4) gives them) and
the spread, the distance between the quartiles as a share of the
median. Every spread must stay within the metric's bound; the target is
a third of it. --save writes the values to FILE; --against FILE also
compares each median with the one saved there, which a set of runs may
not exceed by more than the bound. Exits 1 when a run fails or a check
does not hold.
"""

import argparse
import json
import statistics
import sys

import run as bench


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()
    spec = bench.spec()
    seconds = spec["run_seconds"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    before = {}
    if a.against:
        with open(a.against) as f:
            before = json.load(f)
    if not bench.build():
        return 1
    ok = True
    values = {}
    for w in workloads:
        values[w] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, a.runs + 1):
            out = bench.run_exe(w, seed, seconds, 0)
            res = out and bench.conform(out[1], spec["end_to_end"])
            if not isinstance(res, dict) or not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: FAILED {res if out else ''}")
                ok = False
                continue
            line = []
            for name, v in res["metrics"].items():
                values[w][name].append(v["value"])
                line.append(f"{name}={v['value']:.4g}")
            print(f"{w} seed {seed}: ops {res['attempted']} " + " ".join(line),
                  flush=True)
        print(f"{'workload':<11} {'metric':<13} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'spread':>7} {'bound':>6} {'drift':>7}  verdict")
        for m in spec["end_to_end"]:
            xs = values[w][m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO NOISY")
            if spread > m["bound"]:
                ok = False
            drift = ""
            prev = before.get(w, {}).get(m["name"])
            if prev:
                d = (med - statistics.median(prev)) / statistics.median(prev)
                drift = f"{d:+.3f}"
                if d > m["bound"]:
                    verdict += ", MEDIAN WORSE THAN BEFORE"
                    ok = False
            print(f"{w:<11} {m['name']:<13} {med:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {spread:>7.3f} {m['bound']:>6.2f} {drift:>7}  "
                  f"{verdict}", flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
