#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Build output goes to stderr, so the last line of
stdout is the binary's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: evorec sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        built = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, check=False)
        if built.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 3

    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
