#!/usr/bin/env python3
"""Benchmark entry point: build the runner from source, then run one workload.

    python3 perfbench/run.py --workload table1_grid --seed 1 --seconds 10 --trace 0

Run it from anywhere; paths are taken relative to the checkout that holds
this file. The first call configures and builds perfbench/ (the sccpipe
libraries, the `sccpipe` CLI and perfbench_runner) into .bench_build/;
later calls only rebuild what changed. Build output goes to stderr, so the
last stdout line stays the runner's JSON result. Exits non-zero, printing
no result, when the build fails -- for instance when the sccpipe sources
are not next to perfbench/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("cli_cold", "table1_grid", "chaos_grid", "functional_film")


def build():
    """Configure once, then build incrementally. Returns the runner path."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # The default target is the runner and the CLI; building it also
    # re-runs the configure step when a CMakeLists.txt changed.
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "bin", "perfbench_runner")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plan", action="store_true",
                    help="print the op list and exit")
    ap.add_argument("--inject-failure", action="store_true",
                    help="fail one output check on purpose")
    args = ap.parse_args()

    runner = build()
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(BUILD, "bin", "sccpipe"), "--work-dir", WORK]
    if args.plan:
        cmd.append("--plan")
    if args.inject_failure:
        cmd.append("--inject-failure")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
