#!/usr/bin/env python3
"""Build the RVM benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <tpca_flush|coda_client|restart> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`) and its output
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 only when every correctness check passed.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "rvm-perfbench")
    return subprocess.run([exe] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
