#!/usr/bin/env python3
"""Builds the collector benchmark from source (first use) and runs it.

    python3 perfbench/run.py --workload young-churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to perfbench/build, trace
files to perfbench/out.  The last line of standard output is the run's JSON
result; the exit code is the benchmark's (0 unless it could not run or a
check failed).  Any further options (--collector, --inject, ...) are passed
through to the binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for --seconds; set-up and the final checks take a few
# seconds more.
TIMEOUT_FACTOR = 2
TIMEOUT_SLACK_S = 60


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Runtime.h")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_timeout(args):
    """Seconds the binary may take: twice --seconds plus slack."""
    seconds = 20.0  # the binary's default
    for i, arg in enumerate(args[:-1]):
        if arg == "--seconds":
            try:
                seconds = float(args[i + 1])
            except ValueError:
                pass  # the binary reports the bad value
    return TIMEOUT_FACTOR * max(seconds, 0.0) + TIMEOUT_SLACK_S


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--out-dir", OUT] + sys.argv[1:]
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %.0f s" % timeout)
    sys.exit(code)


if __name__ == "__main__":
    main()
