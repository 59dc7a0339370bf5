#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload copy-remove --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The benchmark program is built
from source with dune into .bench_build (or $CARGO_TARGET_DIR, when set)
and then run once; its standard output is passed through, and its last
line is the result: one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without a result, when the simulator
sources are missing, the build fails, or the run fails or overruns.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("copy-remove", "tenant-churn", "crash-recovery")
RUN_TIMEOUT_S = 175


def parse():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # for the benchmark's own tests and the steady-window check
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--cache-mb", type=int)
    ap.add_argument("--window-scale", type=float)
    return ap.parse_args()


def build():
    """Path of the built program, or None when it cannot be built."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no simulator sources next to perfbench/",
              file=sys.stderr)
        return None
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
         "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(build_dir, "default", "perfbench", "perfbench.exe")


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["metrics"], dict) and res["attempted"] >= 1)


def main():
    args = parse()
    exe = build()
    if exe is None:
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.cache_mb is not None:
        cmd += ["--cache-mb", str(args.cache_mb)]
    if args.window_scale is not None:
        cmd += ["--window-scale", str(args.window_scale)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run overran %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        print("perfbench: run failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
