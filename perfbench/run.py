#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Workloads: uniform-n1k-k3, zipf-publish-n1k-k3.
The build goes to $CARGO_TARGET_DIR (default .bench_build); snapshot files
and per-request trace records go to perfbench/out/. The last line of
standard output is the run's JSON result. Build output goes to standard
error, and a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out-dir", os.path.join(HERE, "out")], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
