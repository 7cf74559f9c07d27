#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes through dune into _build/ inside the checkout, with the
shared dune cache disabled so nothing is written outside it. The
benchmark then replaces this process; its last stdout line is the JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

TARGET = os.path.join("perfbench", "bench.exe")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--profile", "release", "./" + TARGET],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace")[-4000:])
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", TARGET)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
