#!/usr/bin/env python3
"""Build and run the nvpim end-to-end / per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ecim-200k --seed 1 --seconds 45 --trace 0

builds the program's binaries and the benchmark program (into
``$CARGO_TARGET_DIR``, default ``.bench_build``), runs it with one
compute thread and passes its output through. The last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``.

Steadiness check (repeats each workload with distinct seeds and reports
each metric's median, quartiles and max/min against its bound from
``BENCHMARK.json``; with ``--sets 2`` it also checks that two sets of runs
agree within the bounds):

    python3 perfbench/run.py --check-steady --runs 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["ecim-200k", "job-stream"]
# A run measures for --seconds, plus set-up and its last step.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Builds the program's binaries and the benchmark; returns their directory."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"{ROOT} holds no nvpim workspace to build")
        sys.exit(2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "nvpim-cli", "-p", "nvpim-service", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    return target / "release"


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(bin_dir, workload, seed, seconds, trace, rev, capture):
    cmd = [str(bin_dir / "nvpim-perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", str(bin_dir), "--commit", rev]
    env = dict(os.environ, RAYON_NUM_THREADS="1")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: run exceeded {RUN_TIMEOUT_S} s")
        return None


def spread_table(config, results, metric_kind):
    """Prints per-metric order statistics; returns (medians, over-bound names)."""
    bounds = {m["name"]: m for m in config.get(metric_kind, [])}
    medians, over = {}, []
    names = sorted({name for run in results for name in run})
    print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'max/min':>8} {'bound':>6}")
    for name in names:
        values = [run[name] for run in results if name in run]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        lo = min(values)
        ratio = max(values) / lo if lo > 0 else float("nan")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "  OVER BOUND"
                over.append(name)
            elif spread > bound / 3:
                flag = "  over a third of bound"
        medians[name] = median
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"  {name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {ratio:8.4f} {shown:>6}{flag}")
    return medians, over


def check_steady(args, bin_dir, rev):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    seconds = args.seconds or config["run_seconds"]
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in config.get(kind, [])}
    problems = []
    for workload in workloads:
        set_medians = []
        for index in range(args.sets):
            results = []
            for run in range(args.runs):
                seed = args.first_seed + index * args.runs + run
                done = run_bench(bin_dir, workload, seed, seconds, args.trace, rev,
                                  capture=True)
                if done is None or done.returncode != 0:
                    problems.append(f"{workload} seed {seed}: run failed")
                    continue
                lines = done.stdout.strip().splitlines()
                host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
                result = json.loads(lines[-1])
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: incorrect "
                                    f"({result['failed']} of {result['attempted']} failed)")
                results.append({k: v["value"] for k, v in result["metrics"].items()})
                log(f"{workload} set {index + 1} seed {seed}: {host.get('steps')} steps "
                    f"in {host.get('measured_s', 0):.1f} s")
            if not results:
                continue
            print(f"{workload} · set {index + 1} · {len(results)} runs · {seconds} s each "
                  f"· host {host.get('nproc')} CPUs, {host.get('cpu_model')}, "
                  f"RAYON_NUM_THREADS={host.get('rayon_num_threads')}, commit {rev}")
            medians, over = spread_table(config, results, kind)
            problems += [f"{workload} set {index + 1}: {name} spread exceeds its bound"
                         for name in over]
            set_medians.append(medians)
        for later in set_medians[1:]:
            for name, first in set_medians[0].items():
                bound = bounds.get(name)
                if bound is None or name not in later or not first:
                    continue
                # Agreement is two-sided: a set that is much better than the
                # first disagrees with it as much as one that is worse.
                change = (later[name] - first) / abs(first)
                verdict = "DISAGREE" if abs(change) > bound else "agree"
                print(f"  {workload} {name:34} {first:14.6g} -> {later[name]:14.6g} "
                      f"({change:+.2%}, bound {bound:.2f}) {verdict}")
                if abs(change) > bound:
                    problems.append(f"{workload}: {name} median moved {change:+.2%} "
                                    f"between sets")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-steady", action="store_true",
                        help="repeat each workload and report each metric's spread")
    parser.add_argument("--runs", type=int, default=5, help="runs per set (steadiness check)")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs (steadiness check)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (steadiness check)")
    args = parser.parse_args()
    if not args.check_steady and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    bin_dir = build()
    rev = commit()
    if args.check_steady:
        sys.exit(check_steady(args, bin_dir, rev))
    done = run_bench(bin_dir, args.workload, args.seed, args.seconds, args.trace, rev,
                      capture=False)
    sys.exit(1 if done is None else done.returncode)


if __name__ == "__main__":
    main()
