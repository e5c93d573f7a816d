#!/usr/bin/env python3
"""Builds the LawsDB end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/lawsbench (default .bench_build/) and
is incremental. The last line of stdout is the result object printed by
the benchmark; the full results (class medians and sample counts,
failed_ratio, per-class self times of a traced run) and the spans of a traced run are written to
the results/ directory beside the build. A failed build exits non-zero
without a result; a wrong answer or a failed operation exits non-zero
after a result with "correct": false.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures (once) and builds both binaries; returns their directory."""
    bdir = os.path.join(out_dir, "lawsbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "lawsbench",
                  "lawsbench_traced", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed (log: %s)\n" % log_path)
                sys.exit(2)
    return bdir


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["capture", "explore", "archive"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    out_dir = build_dir()
    bdir = build(out_dir)
    # The traced binary counts allocations; untraced runs use the stock
    # allocator.
    binary = os.path.join(bdir, "lawsbench_traced" if args.trace
                          else "lawsbench")
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
