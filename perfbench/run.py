#!/usr/bin/env python3
"""Builds the federation benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <steady|rollout|lossy-campaign> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is compiled from source with cargo (offline, release
profile) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset.
The last line of standard output is the JSON result; build output goes to
standard error.  A traced run also writes its span log to
`perfbench/out/trace-<workload>.tsv`.  Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(ROOT, "perfbench", "out", f"trace-{args.workload}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
