#!/usr/bin/env python3
"""Build the verifier from source and run the verdict-latency benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload sdv|chain|loops --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/perfbench (CMake, RelWithDebInfo) and is
incremental, so only the first run in a checkout compiles. Build output goes
to stderr; stdout is the benchmark's, whose last line is its JSON result.
The exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no verifier sources under src/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
