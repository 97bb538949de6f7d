#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,...] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed and prints, for every metric, the median
of the values and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, then the values
in seed order. Run it from the root of a source checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %s: exit %d, correct=%s" % (seed, proc.returncode, result["correct"]))
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s done" % seed, file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-44s median %14.6g  spread %7.4f  min %12.6g  max %12.6g"
              % (name, med, spread, min(vs), max(vs)))
        print("    " + " ".join("%.6g" % v for v in vs))


if __name__ == "__main__":
    main()
