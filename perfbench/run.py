#!/usr/bin/env python3
"""Build and run the PB-SpGEMM suite benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload er-dram --seed 1 --seconds 30 --trace 0

The first run builds `perfbench/` (a Cargo package of its own) from source
into `$CARGO_TARGET_DIR` (default `.bench_build`).  The benchmark process
gets a one-thread rayon pool (`PB_RAYON_THREADS=1`) and no other `PB_*`
setting, so no tuning knob or tracer from the caller's environment leaks
into the measurement.  The last line of standard output is the JSON result;
any failure exits non-zero without printing one.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("er-dram", "rmat-skew", "serve-mixed")
# One run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def bench_env(target):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PB_")}
    env["PB_RAYON_THREADS"] = "1"
    env["CARGO_TARGET_DIR"] = target
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the benchmark's result has unexpected keys")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = bench_env(target)
    build(env)
    exe = os.path.join(target, "release", "pb-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"the benchmark failed with exit code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1])
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
