#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload write_commit --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set (relative paths are taken from
the repository root), else to .bench_build. Build logs go to stderr, so the
last line on stdout is the benchmark's JSON result. Exits non-zero, without
a result, if the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(out):
    configure = ["cmake", "-S", SOURCE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not run_logged(configure):
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs])


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
