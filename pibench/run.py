#!/usr/bin/env python3
"""Build the pibench binary from source and run one workload.

Usage, from the root of the repository:

    python3 pibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root). The run's standard output is
passed through; its last line is the JSON result. With --trace 1 the
spans are written to <target dir>/pibench-traces/<workload>-<seed>.jsonl.
The exit code is the run's: non-zero when the build fails, a decision or
a self-check fails, or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "pibench", "Cargo.toml")
# A run must end within 180 s; stop the workload process before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def commit_id():
    """The commit of the checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", MANIFEST, "--bin", "pibench"]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"pibench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("pibench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "pibench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit_id()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            target, "pibench-traces", f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pibench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
