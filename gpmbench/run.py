#!/usr/bin/env python3
"""Build and run one gpmbench workload.

Usage (from the repository root):

    python3 gpmbench/run.py --workload clique_lj --seed 7 --seconds 10 --trace 0

Builds the engine and the benchmark from source (Release) into
$CARGO_TARGET_DIR/gpmbench (default .bench_build/gpmbench), computes the
correctness reference in its own process, then runs the measurement in
a second process so that its peak RSS is the workload's alone.  The
last line of standard output is the measurement's JSON result; build
logs go to standard error.  Exit code 0 only if every check passed.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ["clique_lj", "cycle_lj", "serve_mix", "degraded_steal"]
# Whole-run budget: build, reference and measurement together.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"gpmbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "gpmbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "gpmbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="graph seed (default: the recipe's own)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {root}/src")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "gpmbench")
    os.makedirs(build_dir, exist_ok=True)
    if not build(root, build_dir):
        return 2
    binary = os.path.join(build_dir, "gpmbench")

    start = time.monotonic()
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    tag = f"{args.workload}_{'default' if args.seed is None else args.seed}"
    ref_path = os.path.join(build_dir, f"reference_{tag}.txt")
    proc = subprocess.run([binary, "reference", "--workload", args.workload,
                           *seed, "--out", ref_path],
                          stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log("reference run failed")
        return 1

    cmd = [binary, "measure", "--workload", args.workload, *seed,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", ref_path]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, f"spans_{tag}.jsonl")]
    remaining = max(1.0, RUN_TIMEOUT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
