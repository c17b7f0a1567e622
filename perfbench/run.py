#!/usr/bin/env python3
"""Build and run the dyndist end-to-end benchmark.

    python3 perfbench/run.py --workload e1_matrix|kernel_1e6|trace_archive|short_sweep
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a dyndist checkout. The driver is compiled from the
checkout's own sources (perfbench/CMakeLists.txt pulls in ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; the first run
builds, later runs only re-check the build. The workload then runs in its
own process on one driving thread and prints `context`, `fingerprint` and
`detail` lines, then one JSON result line, last. Build output goes to
stderr. Exits non-zero, printing no result, when the checkout has no dyndist
sources, the build fails, or the driver fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("e1_matrix", "kernel_1e6", "trace_archive", "short_sweep")
DRIVER_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "dyndist-perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dyndist-perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or not a.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for need in ("src/CMakeLists.txt", "bench/BenchBuildInfo.h"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no dyndist source tree next to perfbench/ (missing %s)" % need)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    exe = build(os.path.join(build_root, "perfbench"))

    workdir = tempfile.mkdtemp(prefix="work-", dir=build_root)
    try:
        proc = subprocess.run(
            [exe, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", repr(a.seconds), "--trace", str(a.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode:
        fail("driver exited with status %d" % proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed a malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
