#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--heldout-seed M] [WORKLOAD ...]

For each workload (default: all four), at seed N: two untraced runs and one
traced run must pass their correctness checks and print the same
simulated-time signature, a digest of the simulated-time results and the
per-layer counts. (The traced run also compares its traced episode with an
untraced one in-process, so spans cannot perturb the simulation.) Then the
held-out seed M, reserved for confirming later claims, must run clean.
Run it from the root of a source checkout; exit status 0 means every check
held.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["ycsb-a-rbr", "ycsb-b-global", "tpcc-26r", "hotkey-epoch"]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    signature = next((l.split()[1] for l in lines if l.startswith("signature ")), None)
    correct = json.loads(lines[-1])["correct"] if proc.returncode == 0 else False
    return proc.returncode == 0 and correct, signature


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--heldout-seed", type=int, default=4242)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    failures = 0
    for w in args.workloads:
        runs = [run(w, args.seed, 0), run(w, args.seed, 0), run(w, args.seed, 1)]
        ok = all(r[0] for r in runs) and len({r[1] for r in runs}) == 1
        print("%-14s seed %d: %s %s" % (w, args.seed, "identical" if ok else "MISMATCH",
                                        [r[1] for r in runs]))
        held_ok, _ = run(w, args.heldout_seed, 0)
        print("%-14s held-out seed %d: %s" % (w, args.heldout_seed, "clean" if held_ok else "FAILED"))
        failures += (not ok) + (not held_ok)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
