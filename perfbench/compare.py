#!/usr/bin/env python3
"""Diffs benchmark results, or states their run-to-run spread.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --spread RUNS.jsonl

The inputs are JSON-lines files written by `run.py --out`. Per workload and
metric, each side's value is the median over its runs. A metric is flagged
WORSE (or BETTER) when its median moved in that direction by more than its
bound: the end-to-end bound from BENCHMARK.json, or LAYER_BOUND for
per-layer metrics, which have none there. The exit code is 1 when any
metric got worse beyond its bound.

--spread prints, per workload and end-to-end metric, the distance between
the first and third quartile of its values as a share of their median
(statistics.quantiles(values, n=4)), against a third of the metric's bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# The share by which a per-layer metric must move to be flagged.
LAYER_BOUND = 0.10


def load_spec():
    spec = json.loads(BENCHMARK.read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return metrics


def load_runs(path):
    """{workload: {metric: [values]}} over the file's runs."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, m in record["result"]["metrics"].items():
            runs[record["workload"]][name].append(m["value"])
    return runs


def compare(base_path, new_path):
    spec = load_spec()
    base, new = load_runs(base_path), load_runs(new_path)
    regressed = False
    print("%-16s %-44s %14s %14s %9s  %s" %
          ("workload", "metric", "base", "new", "change", "flag"))
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            change = (n - b) / b if b else (0.0 if n == b else float("inf"))
            info = spec.get(name, {"better": "lower", "bound": None})
            bound = info["bound"] if info["bound"] is not None else LAYER_BOUND
            worse = change if info["better"] == "lower" else -change
            flag = ""
            if worse > bound:
                flag, regressed = "WORSE", True
            elif worse < -bound:
                flag = "BETTER"
            print("%-16s %-44s %14.6g %14.6g %+8.1f%%  %s" %
                  (workload, name, b, n, 100 * change, flag))
    return 1 if regressed else 0


def spread(path):
    spec = load_spec()
    runs = load_runs(path)
    ok = True
    print("%-16s %-34s %4s %12s %8s %8s" %
          ("workload", "metric", "runs", "median", "iqr/med", "bound/3"))
    for workload in sorted(runs):
        for name, values in sorted(runs[workload].items()):
            info = spec.get(name)
            if info is None or info["bound"] is None or len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            limit = info["bound"] / 3
            mark = "" if share <= limit else "  TOO WIDE"
            ok = ok and not mark
            print("%-16s %-34s %4d %12.6g %7.2f%% %7.2f%%%s" %
                  (workload, name, len(values), med, 100 * share,
                   100 * limit, mark))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+")
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args()
    if args.spread:
        return max(spread(f) for f in args.files)
    if len(args.files) != 2:
        parser.error("give BASE.jsonl and NEW.jsonl")
    return compare(args.files[0], args.files[1])


if __name__ == "__main__":
    sys.exit(main())
