#!/usr/bin/env python3
"""Builds the Nexus end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root) as a Release build; later runs rebuild only
what changed. Build output goes to stderr, so the benchmark's last stdout
line stays its JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    binary = os.path.join(out_dir, "nexus_perfbench")
    try:
        done = subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
