#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the BENCHMARK.json bounds.

    python3 bench/suite/compare.py A/ B/

A/ and B/ are run.py --out directories; every untraced run appended to
their runs.jsonl counts. Run the two sides alternately (A, B, A, B, ...)
so the i-th runs form a pair. For each end-to-end metric the script
prints one row per workload: each side's median and quartiles, the
relative change of the medians, the bound, and a verdict:

  exact        simulated metric identical on both sides, seed for seed
  MISMATCH     a simulated metric differs (a behaviour change)
  ok           B's median is within the bound of A's
  REGRESSION   B's median is worse than A's by more than the bound
  unresolved   a side's spread (interquartile range / median) exceeds the
               bound and not every B run beats every A run
  gain         B wins at least 9 of 10 pairs and the medians differ by
               more than A's interquartile range

Exits 1 on a REGRESSION, a MISMATCH or a failed unit in B, 2 when the
runs cannot be compared (different nproc, thread count or input scale).
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Simulated-clock metrics: deterministic for a given seed.
EXACT = {"sim_s", "h2d_bytes", "sim_qps", "sim_p50_ms", "sim_tail_ms"}


def load_runs(directory):
    """Untraced workload records, in the order they were run."""
    path = Path(directory) / "runs.jsonl"
    if not path.is_file():
        sys.exit(f"compare.py: {path} not found")
    records = []
    for line in path.read_text().splitlines():
        if line.strip():
            records += [r for r in json.loads(line)["workloads"] if not r["trace"]]
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worsening(meda, medb, better):
    """How much worse B's median is than A's, as a share of A's."""
    if not meda:
        return 0.0
    return (medb - meda) / meda if better == "lower" else (meda - medb) / meda


def verdict(a, b, better, bound):
    """Verdict and relative worsening of B's median against A's."""
    q1a, meda, q3a = quartiles(a)
    q1b, medb, q3b = quartiles(b)
    worse = worsening(meda, medb, better)
    spread = max((q3a - q1a) / meda, (q3b - q1b) / medb if medb else 0.0)
    if better == "lower":
        all_better = max(b) < min(a)
        wins = sum(y < x for x, y in zip(a, b))
    else:
        all_better = min(b) > max(a)
        wins = sum(y > x for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    if spread > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    if pairs and wins >= 0.9 * pairs and abs(medb - meda) > q3a - q1a:
        return "gain", worse
    return "ok", worse


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline run directory")
    ap.add_argument("b", help="candidate run directory")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    benchmark = json.loads(Path(args.benchmark).read_text())
    runs = {"A": load_runs(args.a), "B": load_runs(args.b)}

    for key in ("nproc", "threads", "scale"):
        seen = {r[key] for side in runs.values() for r in side}
        if len(seen) > 1:
            print(f"compare.py: refusing to compare runs with different {key}: "
                  f"{sorted(seen)}", file=sys.stderr)
            return 2

    # side -> workload -> list of records
    by_workload = {s: defaultdict(list) for s in runs}
    for side, records in runs.items():
        for r in records:
            by_workload[side][r["workload"]].append(r)
    workloads = [w["name"] for w in benchmark["workloads"]
                 if by_workload["A"][w["name"]] and by_workload["B"][w["name"]]]
    for side in runs:
        seeds = sorted({r["seed"] for r in runs[side]})
        shas = sorted({r["git_sha"] for r in runs[side]})
        print(f"{side}: {len(runs[side])} workload runs, seeds {seeds}, sha {shas}")

    bad = 0
    for w in workloads:
        failed = sum(r["failed"] for r in by_workload["B"][w])
        if failed:
            print(f"{w}: B has {failed} failed units")
            bad += 1
    for metric in benchmark["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        print(f"\n{name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
        print(f"  {'workload':20s} {'A median [q1, q3]':32s} {'B median [q1, q3]':32s} "
              f"{'worse by':>9s}  verdict")
        for w in workloads:
            a = [r["metrics"][name]["value"] for r in by_workload["A"][w]]
            b = [r["metrics"][name]["value"] for r in by_workload["B"][w]]
            if name in EXACT:
                per_seed = defaultdict(set)
                for r in by_workload["A"][w] + by_workload["B"][w]:
                    per_seed[r["seed"]].add(r["metrics"][name]["value"])
                result = "exact" if all(len(v) == 1 for v in per_seed.values()) \
                    else "MISMATCH"
                worse = worsening(statistics.median(a), statistics.median(b), better)
            else:
                result, worse = verdict(a, b, better, bound)
            bad += result in ("REGRESSION", "MISMATCH")
            print(f"  {w:20s} {fmt(a):32s} {fmt(b):32s} {worse:+9.2%}  {result}")

    print("\nthread-pool speedup at T threads (median run_1t_s / median run_s)")
    for w in workloads:
        speedups = []
        for side in runs:
            median = {m: statistics.median(r["metrics"][m]["value"]
                                           for r in by_workload[side][w])
                      for m in ("run_s", "run_1t_s")}
            speedups.append(f"{side} {median['run_1t_s'] / median['run_s']:.2f}x")
        print(f"  {w:20s} " + "   ".join(speedups))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
