#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

  python3 perfbench/selftest.py

1. Every workload at --tiny size, in both modes, exits 0, fails
   nothing, and prints every metric BENCHMARK.json names for that mode,
   with its unit, both in the JSON line and in the metric lines.
2. The span tree of every traced run is well formed: children sit
   inside their parents, share their parent's event id, and leave the
   parent a self time >= 0; root spans tile the play in order, and each
   event id has exactly one root.
3. Negative controls: healer `none` on a small churn fails rounds and
   exits non-zero, and a wrong expected-outcome file at the default
   seed fails the byte comparison; the real file passes it.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "selftest")
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
    return cond


def run(args):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, lines


def check_metrics(label, result, lines, specs):
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    check(set(result["metrics"]) == {s["name"] for s in specs},
          "%s: JSON metrics differ from BENCHMARK.json" % label)
    for s in specs:
        m = result["metrics"].get(s["name"])
        check(m is not None and m["unit"] == s["unit"]
              and isinstance(m["value"], (int, float)),
              "%s: %s missing or without unit %s" % (label, s["name"], s["unit"]))
        check(printed.get(s["name"]) == s["unit"],
              "%s: no metric line for %s [%s]" % (label, s["name"], s["unit"]))


def check_spans(label, path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            idx, parent, layer, event, start, end = line.split("\t")
            spans.append((int(parent), layer, event, int(start), int(end)))
    check(len(spans) > 0, "%s: no spans written" % label)
    child_ns = [0] * len(spans)
    roots = []
    for i, (parent, layer, event, start, end) in enumerate(spans):
        check(start <= end, "%s: span %d ends before it starts" % (label, i))
        if parent < 0:
            roots.append(i)
            continue
        p_parent, p_layer, p_event, p_start, p_end = spans[parent]
        check(parent < i, "%s: span %d precedes its parent" % (label, i))
        check(p_start <= start and end <= p_end,
              "%s: span %d (%s) outside its parent %s" % (label, i, layer, p_layer))
        check(event == p_event,
              "%s: span %d has event %s, parent %s" % (label, i, event, p_event))
        child_ns[parent] += end - start
    for i, s in enumerate(spans):
        if child_ns[i] > s[4] - s[3]:
            check(False, "%s: span %d has negative self time" % (label, i))
            break
    root_events = [spans[i][2] for i in roots]
    check(len(root_events) == len(set(root_events)),
          "%s: an event id has more than one root span" % label)
    for a, b in zip(roots, roots[1:]):
        check(spans[a][4] <= spans[b][3] and
              (spans[a][2].split(":")[0] != spans[b][2].split(":")[0]
               or spans[a][4] == spans[b][3]),
              "%s: root spans %d and %d do not tile the play" % (label, a, b))


def main():
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for w in spec["workloads"]:
        name = w["name"]
        for trace, specs in modes.items():
            label = "%s trace=%d" % (name, trace)
            spans = os.path.join(WORK, name + ".spans.tsv")
            extra = ["--spans", spans] if trace else []
            code, result, lines = run(
                ["--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny"] + extra)
            if not check(result is not None, "%s: no result line" % label):
                continue
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  "%s: exit %d, %d failed" % (label, code, result["failed"]))
            check(result["attempted"] >= 1, "%s: nothing attempted" % label)
            check_metrics(label, result, lines, specs)
            if trace:
                check_spans(label, spans)

    code, result, _ = run(["--workload", "churn-joins", "--seed", "5",
                           "--seconds", "1", "--trace", "0", "--tiny",
                           "--healer", "none"])
    check(code != 0, "healer none: exit code 0")
    check(result is not None and not result["correct"]
          and result["failed"] > 0,
          "healer none: no failed operations reported")

    wrong = os.path.join(WORK, "wrong-outcome.json")
    with open(wrong, "w") as f:
        f.write("{}")
    base = ["--workload", "churn-joins", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    code, result, _ = run(base + ["--expected", wrong])
    check(code != 0 and result is not None and result["failed"] == 1,
          "wrong expected bytes: the byte comparison did not fail")
    code, result, _ = run(base)
    check(code == 0 and result is not None and result["failed"] == 0,
          "expected bytes at the default seed: comparison failed")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
