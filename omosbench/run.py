#!/usr/bin/env python3
"""Build and run the OMOS end-to-end benchmark.

Usage (from the repository root):

    python3 omosbench/run.py --workload ls_fleet --seed 1 --seconds 20 --trace 0

The first call configures and builds omosbench/ (which compiles the OMOS
libraries from ../src) into .bench_build/omosbench; later calls rebuild
incrementally. Build output goes to stderr, so the benchmark's last stdout
line is its JSON result. Exits non-zero, printing no result, when the
sources or the build are missing; exits non-zero after the JSON line when
the run is not correct.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "omosbench")
BINARY = os.path.join(BUILD, "omos_e2e")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("omosbench: OMOS sources (src/) not found next to omosbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "omos_e2e", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("omosbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("omosbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
