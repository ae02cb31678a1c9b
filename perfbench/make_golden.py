#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: the digests of the first ops of
every workload at the golden seed.

    python3 perfbench/make_golden.py

Run it only after a change that is meant to alter simulated behaviour;
a change that only speeds the simulator up must leave every digest as
it is. Each digest is kept to its first 16 hex digits. The web_reboot
and fleet_roll lists cover more ops than a 30-s run reaches on a 2-vCPU
Xeon virtual machine (about 30 and 27); the vmm_sweep list covers its
first six rounds (24 seeds), of the about 30 rounds such a run reaches.
"""

import json
import os
import sys

import run as bench

GOLDEN_SEED = 42
# workload: (ops to pin, seconds to run for them)
OPS = {"web_reboot": (64, 90), "vmm_sweep": (6 * 4 * 54, 10),
       "fleet_roll": (45, 100)}
DIGITS = 16


def main():
    if not bench.build():
        return 1
    golden = {"seed": GOLDEN_SEED}
    for workload, (n, seconds) in OPS.items():
        out = bench.run_exe(workload, GOLDEN_SEED, seconds, 0,
                            extra=("--golden", "none"))
        if out is None or not out[1]["correct"]:
            print(f"{workload}: run failed", file=sys.stderr)
            return 1
        path = os.path.join(bench.ROOT, bench.OUT_DIR,
                            f"{workload}-seed{GOLDEN_SEED}-trace0.digests")
        with open(path) as f:
            digests = [line.strip()[:DIGITS] for line in f if line.strip()]
        if len(digests) < n:
            print(f"{workload}: only {len(digests)} ops, wanted {n}",
                  file=sys.stderr)
            return 1
        golden[workload] = digests[:n]
        print(f"{workload}: {n} digests")
    with open(os.path.join(bench.HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
