#!/usr/bin/env python3
"""Build the program and the benchmark, then run one workload.

    python3 perfbench/run.py --workload cold-certify|warm-hit|fleet-persist \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  Build output goes to standard
error; the last line of standard output is the JSON result
(see perfbench/main.ml).  Exits non-zero, printing no result, when the
tree cannot be built.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["perfbench/main.exe", "bin/chimera_cli.exe"]


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", *TARGETS],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune is not installed", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    bench = subprocess.run(
        [exe, *sys.argv[1:],
         "--worker-exe", os.path.join(ROOT, "_build", "default", "bin", "chimera_cli.exe"),
         "--work-dir", os.path.join(ROOT, ".perfbench_tmp"),
         "--out-dir", os.path.join(ROOT, ".perfbench_out")],
        cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
