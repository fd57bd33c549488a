#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kd-dense-flat --seed 0 --seconds 30 --trace 0

`--workload all` runs the three workloads in turn, each in its own
process, and fails if any of them fails.

Builds `repro` from the repository workspace and the `perfbench` package
beside this script (release profile, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the workload. Build output goes to stderr;
the benchmark's own lines, ending with the JSON result, go to stdout.
Exits non-zero, without a result, if either build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kd-dense-flat", "bvh-sparse-cached", "serve-cold-warm")
# A run must end within 180 s; the benchmark's own timeouts are shorter.
RUN_TIMEOUT_S = 175


def build(target, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    a = p.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target, ["-p", "experiments", "--bin", "repro"])
    build(target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])

    failed = []
    for workload in WORKLOADS if a.workload == "all" else (a.workload,):
        cmd = [
            os.path.join(target, "release", "perfbench"),
            "--workload", workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", a.trace,
            "--work-dir", os.path.join(ROOT, ".bench_work"),
            "--repro", os.path.join(target, "release", "repro"),
        ]
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = f"timed out after {RUN_TIMEOUT_S} s"
        if code != 0:
            failed.append(f"{workload}: {code}")
    if failed:
        sys.exit("perfbench: failed: " + ", ".join(failed))


if __name__ == "__main__":
    main()
