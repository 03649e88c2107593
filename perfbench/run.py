#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload system-mixed --seed 20 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs reuse that build. Build output goes to
standard error. The benchmark binary prints a human-readable report and, as
the last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("system-mixed", "machine-fi", "reliability-mc")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; fails the benchmark on error."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        fail(f"build step failed: {error}")


def cache_matches(cache, bench_dir):
    """True when the CMake cache was configured from this source directory."""
    with open(cache, encoding="utf-8", errors="replace") as lines:
        for line in lines:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                configured = line.split("=", 1)[1].strip()
                return os.path.realpath(configured) == os.path.realpath(bench_dir)
    return False


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; nothing to build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache) and not cache_matches(cache, bench_dir):
        shutil.rmtree(build_dir)  # configured for a checkout at another path
    if not os.path.isfile(cache):
        run_logged(["cmake", "-S", bench_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
               BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no executable at {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(bench_dir, build_dir)

    trace_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_path]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
