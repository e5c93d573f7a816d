#!/usr/bin/env python3
"""Steadiness check for one workload of the end-to-end benchmark.

Runs two sets of N untraced runs of the same code, interleaved with
alternating order (A0 B0 B1 A1 A2 B2 ...); run i of either set uses seed
SEED + i. Prints each end-to-end metric's median and quartiles per set and
fails (exit 1) when a metric's spread (Q3 - Q1) / median exceeds its bound
in BENCHMARK.json, setup_s included, or when set B's median is worse than
set A's by more than the bound.

With --traced K it also makes K traced runs on seeds SEED..SEED+K-1 and
 - checks, per traced run and class, that the layer self times on the
   class's path add up to that run's class median within 5% (medians of
   parts need not add up exactly to the median of the whole). The check
   fails the run on explore only: archive's hybrid classes mix model
   answers with exact fallbacks, and a bimodal class's medians of parts
   need not add up to its median, so there it is only reported;
 - reports the tracing overhead per class: the median over the traced runs
   of the class median against the median over set A's runs on the same
   seeds;
 - prints the 1-lane rows of the first traced run.

    python3 perfbench/steady.py --workload explore --runs 10 --seed 20150104
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF_SUM_SLACK = 0.05


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark once; returns (result line, full results file)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady.py: run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steady.py: incorrect or failed run: %s" % " ".join(cmd))
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    path = os.path.join(base, "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return result, json.load(f)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def worse(metric, a, b):
    """How much worse b is than a, as a share of a."""
    if a == 0:
        return 0.0
    delta = (b - a) / a
    return delta if metric["better"] == "lower" else -delta


def check_sets(metrics, sets):
    ok = True
    print("%-20s %-5s %12s %12s %12s %8s %8s %8s" %
          ("metric", "unit", "median A", "Q1 A", "Q3 A", "spreadA",
           "spreadB", "B-vs-A"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = [r[name]["value"] for r in sets["A"]]
        b = [r[name]["value"] for r in sets["B"]]
        ma, q1a, q3a = summary(a)
        mb, q1b, q3b = summary(b)
        sa = (q3a - q1a) / ma if ma else 0.0
        sb = (q3b - q1b) / mb if mb else 0.0
        drift = worse(m, ma, mb)
        flags = []
        if sa > bound or sb > bound:
            flags.append("SPREAD>BOUND")
        elif max(sa, sb) > bound / 3:
            flags.append("spread>bound/3")
        if drift > bound:
            flags.append("DRIFT>BOUND")
        if any(f.isupper() for f in flags):
            ok = False
        print("%-20s %-5s %12.6g %12.6g %12.6g %8.4f %8.4f %+8.4f %s" %
              (name, m["unit"], ma, q1a, q3a, sa, sb, drift, " ".join(flags)))
    print("\nper-run values in run order (A, then B):")
    for m in metrics:
        for s in ("A", "B"):
            print("  %-20s %s  %s" % (m["name"], s, " ".join(
                "%.5g" % r[m["name"]]["value"] for r in sets[s])))
    return ok


def check_traced(args, seconds, full_a):
    ok = True
    traced = [run_once(args.workload, args.seed + i, seconds, 1)
              for i in range(args.traced)]
    print("\nself-time sums per traced run (layer medians vs class median):")
    for _, full in traced:
        for cls, row in full["self_time"].items():
            total = full["classes"][cls]["p50_ms"]
            parts = {k[:-len("_self_ms")]: v for k, v in row.items()
                     if k.endswith("_self_ms")}
            self_sum = sum(parts.values())
            good = abs(self_sum - total) <= SELF_SUM_SLACK * total
            ok = ok and (good or args.workload != "explore")
            print("  seed %-10d %-8s class %12.4f ms  sum %12.4f ms  %s  %s" %
                  (full["seed"], cls, total, self_sum,
                   " ".join("%s=%.4g" % kv for kv in sorted(parts.items())),
                   "ok" if good else "MISMATCH"))
    print("\ntracing overhead per class (median of %d traced runs vs the "
          "untraced set A runs on the same seeds):" % args.traced)
    for cls in sorted(traced[0][1]["classes"]):
        t = statistics.median(f["classes"][cls]["p50_ms"] for _, f in traced)
        u = statistics.median(full_a[i]["classes"][cls]["p50_ms"]
                              for i in range(args.traced))
        print("  %-8s untraced %12.4f ms  traced %12.4f ms  overhead %+.3f" %
              (cls, u, t, (t - u) / u))
    print("\n1-lane rows (first traced run):")
    for k, v in sorted(traced[0][0]["metrics"].items()):
        if "1lane" in k:
            print("  %-32s %12.6g %s" % (k, v["value"], v["unit"]))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=20150104)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--traced", type=int, default=0,
                   help="number of traced runs (at most --runs)")
    args = p.parse_args()
    args.traced = min(args.traced, args.runs)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    sets = {"A": [], "B": []}
    full_a = []
    for i in range(args.runs):
        for name in ("AB" if i % 2 == 0 else "BA"):
            result, full = run_once(args.workload, args.seed + i, seconds, 0)
            sets[name].append(result["metrics"])
            if name == "A":
                full_a.append(full)
            print("run %2d set %s done" % (i, name), file=sys.stderr)

    ok = check_sets(bench["end_to_end"], sets)
    if args.traced:
        ok = check_traced(args, seconds, full_a) and ok
    print("\nsteady: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
