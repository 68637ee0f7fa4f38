#!/usr/bin/env python3
"""Builds the graybox benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <verdict|certify|campaign|scale> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built offline in release mode into `$CARGO_TARGET_DIR`
(`.bench_build` when unset); cargo's output goes to standard error, so the
last line of standard output is the benchmark's result object. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "graybox-perfbench")
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left
    # running and the caller waits on it directly.
    os.execve(binary, [binary, *sys.argv[1:]], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
