#!/usr/bin/env python3
"""Builds the bcsim_e2e benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload wq-wbi-512 --seed 1 --seconds 10 --trace 0

Every argument goes to bcsim_e2e unchanged (see perfbench/README.md). The
build lives in .bench_build/perfbench at the root of the checkout; build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits nonzero without a result when the sources or the build fail.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bcsim_e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no bcsim sources at %s" % os.path.join(ROOT, "src"))
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("run.py: cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run([cmake, "--build", BUILD, "-j", jobs, "--target", "bcsim_e2e"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed (%s)" % e)
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
