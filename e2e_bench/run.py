#!/usr/bin/env python3
"""Builds the end-to-end GestureRuntime benchmark and runs one workload.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload replay_fused --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds `e2e_bench/` in Release under
`.bench_build/e2e_bench`; later calls only re-check that build. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. The exit code is the benchmark's: non-zero on a failed build, a
failed output check or a timeout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "gesture_e2e")
WORKLOADS = ("replay_fused", "replay_sharded", "interactive_durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        if not build():
            print("e2e_bench: build failed", file=sys.stderr)
            return 2
    except subprocess.TimeoutExpired:
        print("e2e_bench: build timed out", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2e_bench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
