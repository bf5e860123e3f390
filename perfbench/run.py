#!/usr/bin/env python3
"""Builds the dggt library and the perfbench binary from source, then runs
one benchmark workload. Run from the repository root:

    python3 perfbench/run.py --workload heavy-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --regenerate [--pool-seed 1]

The last line of stdout is the run's JSON result. Build output goes to
stderr; the build tree is $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return target, os.path.join(build_dir, "perfbench")


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--regenerate", action="store_true",
                    help="rewrite perfbench/inputs from --pool-seed")
    ap.add_argument("--pool-seed", type=int, default=1)
    args = ap.parse_args()
    if not args.regenerate and not args.workload:
        ap.error("--workload is required")

    target, binary = build()
    inputs = os.path.join(HERE, "inputs")
    if args.regenerate:
        sys.exit(run([binary, "regen", "--seed", str(args.pool_seed),
                      "--out", inputs]))
    sys.exit(run([binary, "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", args.trace,
                  "--inputs", inputs, "--out", target]))


if __name__ == "__main__":
    main()
