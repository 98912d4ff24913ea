#!/usr/bin/env python3
"""Build bench_ledger from source, then run it with the given arguments.

Run from the repository root, for example:

    python3 bench/ledger/run.py --workload whole_ilp --seconds 20 --trace 0

The build goes to build_ledger/ under the current directory; build output
goes to stderr, so the benchmark's result line stays last on stdout. Exits
non-zero when the build or the benchmark fails.
"""

import os
import subprocess
import sys

BUILD_DIR = "build_ledger"
SOURCE_DIR = os.path.join("bench", "ledger")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_ledger",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "bench_ledger")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
