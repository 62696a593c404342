#!/usr/bin/env python3
"""Build the optrep benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr. The benchmark binary
prints its report and, as the last line of stdout, the result object; its exit
status is passed through (non-zero when a check failed or the build failed).
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("serve_read", "gossip")
TIME_LIMIT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s after %.0f s" % (TIME_LIMIT_S, time.monotonic() - start),
              file=sys.stderr)
        return 1
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
