#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload churn-joins --seed 7 --seconds 30 --trace 0
      one workload in a fresh process; the last stdout line is the JSON
      result, the exit code is non-zero on any failed check
  python3 perfbench/run.py
      all three workloads at the default seed, one process each, and a
      table of every end-to-end metric
  python3 perfbench/run.py --steadiness --runs 10 [--sets 2] [--seed 1]
                           [--vary-seeds]
      each workload in fresh processes, the order alternating between
      rounds, every round at --seed (or at --seed + round with
      --vary-seeds); then the quartiles of every metric, of the
      machine probes and reference kernel timed in the same processes
      and of the wall-clock figures, per set, and with
      --sets 2 or more how far each median moved from the first set's

The first call configures and builds perfbench/CMakeLists.txt (the
library from src/ plus the workload binary) in .bench_build/perfbench.
Arguments the workload binary knows beyond the four above (--tiny,
--healer, --spans, --write-expected) are passed on unchanged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_workload")
WORKLOADS = ["serve-strike", "paper-targeted", "churn-joins"]
DEFAULT_SEED = 1


def build():
    """Configure once, then build incrementally. Build output goes to
    stderr, so stdout carries only results."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(proc.returncode or 1)


def workload_cmd(workload, seed, seconds, trace, extra=()):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--expected", os.path.join(HERE, "expected", workload + ".json"),
            *extra]


def run_captured(cmd):
    """Run one workload process; return (exit code, result, info)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is not None:
        for m in result["metrics"].values():
            if m["value"] is None:  # not finite: the run has failed
                m["value"] = float("nan")
    info = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info":
            info[parts[1]] = (float(parts[2]), parts[3])
    return proc.returncode, result, info


def run_all(seconds):
    status = 0
    print("%-16s %-22s %18s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        code, result, info = run_captured(
            workload_cmd(workload, DEFAULT_SEED, seconds, 0))
        if result is None:
            print("%-16s no result (exit %d)" % (workload, code))
            status = 1
            continue
        status = status or code
        for name, m in result["metrics"].items():
            print("%-16s %-22s %18.6g  %s" % (workload, name, m["value"], m["unit"]))
        frac = result["failed"] / result["attempted"]
        print("%-16s %-22s %18.6g  ratio  (%d of %d operations, correct=%s)" % (
            workload, "failed_frac", frac, result["failed"],
            result["attempted"], result["correct"]))
    return status


def load_spec():
    """Metric name -> (bound or None, better) from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m.get("bound"), m["better"])
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


# Info lines the steadiness report summarises beside the metrics: the
# machine probes, the reference kernel the times are scaled by, and the
# wall-clock figures before scaling.
INFO = ("machine_probe_ms", "machine_probe_mem_ms", "reference_kernel_ms",
        "wall.setup_s", "wall.events_per_s", "wall.event_p50_ms",
        "wall.event_p99_ms")


def run_set(runs, seconds, trace, base_seed, vary_seeds):
    """One set of rounds; returns ((workload, metric, unit) -> values,
    exit status)."""
    samples = {}
    status = 0
    for r in range(runs):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        seed = base_seed + r if vary_seeds else base_seed
        for workload in order:
            code, result, info = run_captured(
                workload_cmd(workload, seed, seconds, trace))
            if result is None or code != 0:
                print("round %d %s: exit %d" % (r, workload, code))
                status = 1
                if result is None:
                    continue
            values = [(name, m["value"], m["unit"])
                      for name, m in result["metrics"].items()]
            values += [(name,) + info[name] for name in INFO if name in info]
            for name, value, unit in values:
                samples.setdefault((workload, name, unit), []).append(value)
            print("round %d %s seed %d: %s" % (r, workload, seed, " ".join(
                "%s=%.6g" % (name, value) for name, value, _ in values)))
            sys.stdout.flush()
    return samples, status


def quartiles(values):
    if len(values) >= 2:
        return statistics.quantiles(values, n=4)
    return values[0], values[0], values[0]


def steadiness(runs, sets, seconds, trace, base_seed, vary_seeds):
    """Quartiles of every metric per set, and how far each set's median
    moved from the first set's, as a share of the first; a move counts
    against the metric's bound only in its worse direction."""
    spec = load_spec()
    status = 0
    first = {}
    for k in range(sets):
        samples, code = run_set(runs, seconds, trace, base_seed, vary_seeds)
        status = status or code
        print("set %d of %d: %d rounds, seeds %s" % (
            k + 1, sets, runs,
            "%d..%d" % (base_seed, base_seed + runs - 1) if vary_seeds
            else str(base_seed)))
        print("%-16s %-36s %4s %13s %13s %13s %7s %8s %6s" % (
            "workload", "metric", "runs", "q1", "median", "q3", "spread",
            "drift", "bound"))
        for (workload, name, unit), values in samples.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound, better = spec.get(name, (None, "lower"))
            drift = ""
            if k == 0:
                first[(workload, name)] = med
            elif first.get((workload, name)):
                moved = med / first[(workload, name)] - 1.0
                drift = "%+.4f" % (-moved if better == "higher" else moved)
            print("%-16s %-36s %4d %13.6g %13.6g %13.6g %7.4f %8s %6s" % (
                workload, name + " [" + unit + "]", len(values), q1, med, q3,
                spread, drift, "" if bound is None else bound))
        sys.stdout.flush()
    return status


def main():
    ap = argparse.ArgumentParser(
        description="Build and run the repository benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="run every workload --runs times, report quartiles")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1,
                    help="steadiness sets; later sets report their drift")
    ap.add_argument("--vary-seeds", action="store_true",
                    help="steadiness round r runs at --seed + r")
    args, extra = ap.parse_known_args()

    build()
    if args.steadiness:
        return steadiness(args.runs, args.sets, args.seconds, args.trace,
                          args.seed, args.vary_seeds)
    if args.workload is None:
        return run_all(args.seconds)
    sys.stdout.flush()
    return subprocess.run(workload_cmd(args.workload, args.seed, args.seconds,
                                       args.trace, extra)).returncode


if __name__ == "__main__":
    sys.exit(main())
