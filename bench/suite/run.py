#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

    python3 bench/suite/run.py --seed 1 --out bench-out/ [--workload NAME]
    python3 bench/suite/run.py --workload stream-bfs --seed 3 --seconds 10 --trace 1
    python3 bench/suite/run.py --smoke

Each workload runs in its own gr_bench_suite process. The script prints
one "workload metric value unit" line per metric, writes
<out>/results.json (and, except in a --smoke run, appends the same record
to <out>/runs.jsonl for compare.py), and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics. It
exits nonzero when a unit failed its check, a metric name disagrees with
BENCHMARK.json, or the build is not a Release build.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BINARY = "gr_bench_suite"
# A workload takes 10-15 s at run_seconds = 10 on 4 cores.
WORKLOAD_TIMEOUT_S = 30
# Self-test: shrunken inputs (edge-count scale), a short budget.
SMOKE_SCALE = 1.0 / 32.0
SMOKE_SECONDS = 0.5


class BenchError(Exception):
    pass


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "bench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", BINARY])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    binary = build_dir / BINARY
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def git_sha():
    """The source tree's commit ("-dirty" with local changes); the build
    stamps the commit at configure time, which goes stale."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if sha.returncode:
            return "unknown"
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True).stdout.strip()
        return sha.stdout.strip() + ("-dirty" if dirty else "")
    except OSError:
        return "unknown"


def run_workload(binary, workload, seed, seconds, trace, out_dir, scale):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if scale != 1.0:
        cmd += ["--scale", repr(scale)]
    err_path = out_dir / f"stderr.{workload}.log"
    with open(err_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: no result within {WORKLOAD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: exited {proc.returncode} without a result "
                         f"(see {err_path})")
    if record.get("build_type") != "Release":
        raise BenchError(f"{workload}: refusing a {record.get('build_type')!r} "
                         "build; timings need a Release build")
    return record


def check_names(benchmark, record):
    """Every declared metric is printed and every printed one declared."""
    key = "per_layer" if record["trace"] else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[key]}
    printed = {name: m["unit"] for name, m in record["metrics"].items()}
    problems = []
    for name in sorted(declared.keys() - printed.keys()):
        problems.append(f"declared {key} metric {name} was not printed")
    for name in sorted(printed.keys() - declared.keys()):
        problems.append(f"printed metric {name} is not declared in {key}")
    for name in sorted(declared.keys() & printed.keys()):
        if declared[name] != printed[name]:
            problems.append(f"{name}: unit {printed[name]} != declared {declared[name]}")
    return problems


def report(record):
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w} {name} {m['value']:.10g} {m['unit']}")
    rate = record["failed"] / max(1, record["attempted"])
    print(f"{w}: {record['attempted']} units, {record['failed']} failed "
          f"(error rate {rate:.4f})")
    for error in record["errors"]:
        print(f"{w}: error: {error}")


def main():
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                    help="measured time per workload (part of the benchmark "
                         "command line; default run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer run (host spans)")
    ap.add_argument("--out", default="bench-out",
                    help="directory for results and trace files")
    ap.add_argument("--build-dir", default=".bench_build")
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: every workload, both modes, tiny inputs")
    args = ap.parse_args()

    out_dir = Path(args.out)
    build_dir = Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.smoke:
            plan = [(w, t) for w in names for t in (0, 1)]
            scale, seconds = SMOKE_SCALE, SMOKE_SECONDS
        else:
            plan = [(w, args.trace) for w in (args.workload or names)]
            scale, seconds = 1.0, args.seconds
        sha = git_sha()
        records = []
        problems = []
        for workload, trace in plan:
            record = run_workload(binary, workload, args.seed, seconds, trace,
                                  out_dir, scale)
            record["git_sha"] = sha
            report(record)
            problems += [f"{workload}: {p}" for p in check_names(benchmark, record)]
            if trace:
                layers = json.loads((out_dir / f"layers.{workload}.json").read_text())
                if layers["run_coverage"] > 0:
                    print(f"{workload}: engine, vgpu and frontier spans cover "
                          f"{layers['run_coverage']:.4f} of the traced run time")
            records.append(record)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)

    first = records[0]
    provenance = {k: first[k] for k in ("git_sha", "build_type", "nproc", "threads",
                                        "seed", "seconds", "scale")}
    result = {"provenance": provenance, "workloads": records}
    (out_dir / "results.json").write_text(json.dumps(result, indent=1) + "\n")
    if not args.smoke:  # compare.py refuses a mix of input scales
        with open(out_dir / "runs.jsonl", "a") as f:
            f.write(json.dumps(result) + "\n")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{n}": m for r in records
                   for n, m in r["metrics"].items()}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
