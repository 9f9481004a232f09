#!/usr/bin/env python3
"""Builds and runs the end-to-end race-detection benchmark.

Run from the root of a BigFoot checkout:

    python3 perfbench/run.py --workload bigfoot --seed 1 --seconds 20 --trace 0

Configures perfbench/ (a standalone CMake project over ../src) into
.bench_build/ in Release mode, builds it, and runs bench_pipeline. Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the metrics are the per-layer ones and the spans
are written to .bench_build/spans/. `--workload all` runs the three
workloads one after another; `--selftest` builds and runs the benchmark's
own test instead.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_pipeline")
WORKLOADS = ("bigfoot", "fasttrack", "sync_heavy")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def check(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure. The
    step runs in its own process group so a timeout stops the compilers
    it started too."""
    try:
        proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                start_new_session=True)
    except OSError as err:
        fail("build step failed: %s" % err)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("build step timed out: %s" % " ".join(cmd))
    if code != 0:
        fail("build step failed (exit %d): %s" % (code, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no BigFoot sources next to perfbench/ (expected %s/src)" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check(["cmake", "--build", BUILD, "-j", jobs, "--target",
           "bench_pipeline"], BUILD_TIMEOUT_S)


def run(cmd):
    """Runs the benchmark binary with stdout passed through; returns its
    exit code."""
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")

    build()
    if args.selftest:
        sys.exit(1 if run([BINARY, "--root", ROOT, "--selftest"]) else 0)
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = run([
            BINARY, "--root", ROOT, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spans-out",
            os.path.join(spans, "%s-seed%d.json" % (workload, args.seed))])
        code = code or rc
    sys.exit(1 if code < 0 else code)


if __name__ == "__main__":
    main()
