#!/usr/bin/env python3
"""Builds and runs the served-query benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload point|closure --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the engine library from src/ in Release mode. The build
tree is $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; build output goes to stderr, so the benchmark's JSON
result stays the last line of stdout. Exits non-zero without a result
when the build fails (for example when src/ is absent).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0


def main(argv):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if argv == ["--selftest"]:
        if not build(build_dir, "perfbench_selftest"):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode
    if not build(build_dir, "perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    data_dir = os.path.join(build_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(build_dir, "perfbench"), *argv,
         "--data-dir", data_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
