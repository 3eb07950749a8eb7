#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload recover_cold --seed 1 --seconds 30 --trace 0

Workloads: recover_cold, recover_warm, serve_score (see perfbench/README.md).
The first run configures and builds perfbench/ (the rebert libraries from
src/ plus the benchmark binary) into .bench_build/perfbench; later runs only
re-check the build. Every run first executes the benchmark's self-tests.
Build and self-test output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero without a result when the
sources are missing, the build or a self-test fails, or a correctness
check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rebert sources under {ROOT}/src; nothing to benchmark")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["recover_cold", "recover_warm", "serve_score"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                      timeout=RUN_TIMEOUT_S).returncode != 0:
        fail("self-tests failed")
    sys.stdout.flush()
    try:
        status = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(status)


if __name__ == "__main__":
    main()
