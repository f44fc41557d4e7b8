#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fuzz|micro|macro --seed N \
        --seconds S --trace 0|1

The arguments go unchanged to perfbench/bench.exe (see bench.ml); its
last line of standard output is the JSON result.  Exits 2 without a
result when the directory is not a checkout of the repository.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
