#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload cold_corpus --seed 1 --seconds 12 --trace 0
    python3 bench/e2e/run.py --seed 1            # every workload, timed and traced

It builds bench/e2e/main.exe and the estimator it starts, bin/main.exe,
into .bench_build (release profile, so a warning in code under test
cannot stop the benchmark). Build output goes to standard
error; standard output belongs to the benchmark, whose last line is its
JSON result. All arguments are passed to bench/e2e/main.exe.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./bench/e2e/main.exe"
# The estimator daemon the workloads start: `bin/main.exe serve`.
ESTIMATOR = "./bin/main.exe"


def main() -> int:
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET, ESTIMATOR],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
