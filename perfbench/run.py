#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload estimate|campaign|campaign_remote \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); spans and coordinator journals go to
`<target>/perfbench`. The last line of standard output is the result
object described in perfbench/README.md. Build output and progress go to
standard error. Exits non-zero, without a result line, when the build or
the run fails; exits non-zero after the result line when a correctness
check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("estimate", "campaign", "campaign_remote")
# Time a run may take beyond --seconds: set-up, the body unit that
# overruns the run length, and the correctness checks after it.
RUN_SLACK_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed wants a whole number >= 0 and --seconds a positive number")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    for crate in ("sim", "cc", "core", "testbed", "workloads", "bench"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from a full checkout of the repository")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (cargo exit code {build.returncode})")

    exe = os.path.join(target, "release", "nfp-perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--out", os.path.join(target, "perfbench"),
    ]
    timeout = args.seconds + RUN_SLACK_S
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:.0f}s")
    lines = run.stdout.decode().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        fail(f"{args.workload} printed no result (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload}: last line is not a result object: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{args.workload}: result object has keys {sorted(result)}")
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
