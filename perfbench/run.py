#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
perfbench/main.exe from source with dune (release profile, build directory
.bench_build, dune cache off so nothing is written outside the checkout),
then runs it with the same arguments. Progress goes to standard error; the
last line of standard output is the JSON result. The exit status is that of
the benchmark: 0 when every correctness check passed.

Workloads: ycsb-a-rbr, ycsb-b-global, tpcc-26r, hotkey-epoch. See
perfbench/README.md for the metrics.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ next to perfbench/: run from a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled", DUNE_BUILD_DIR=BUILD_DIR)
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--profile", "release",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def main():
    build()
    try:
        proc = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (ValueError, IndexError):
        ok = False
    if proc.returncode == 0 and not ok:
        print(proc.stdout, end="")
        fail("benchmark printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
