#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale and a short run.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that:
  * the untraced run emits exactly the end-to-end metrics, and the traced
    run exactly the per-layer metrics, with their units;
  * every answer was right (failed == 0, correct == true);
  * two traced runs with the same seed give identical exact counts: the
    exec.* and engine.* row counts and the cache counters.
Exits 1 and names each failed check otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SF = "0.0005"
SECONDS = "1"

# Counts that depend only on the seed (one client; cache and executor are
# deterministic). Thread pool counters depend on scheduling and are left out.
EXACT = ("exec.engine_queries", "exec.tuples_materialized",
         "exec.score_entries_written", "exec.operator_invocations",
         "engine.rows_scanned", "engine.join_build_rows",
         "engine.join_probe_rows", "engine.result_rows",
         "engine.parallel_regions", "cache.lookups", "cache.hits",
         "cache.insertions", "cache.admission_rejected", "cache.evictions",
         "cache.resident_mb")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--sf", SF]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def check_result(label, result, spec_metrics, problems):
    if result is None:
        problems.append("%s: run failed" % label)
        return
    if not result["correct"] or result["failed"] != 0:
        problems.append("%s: %d of %d answers failed" %
                        (label, result["failed"], result["attempted"]))
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, wrong unit %s" %
                        (label, sorted(set(want) - set(got)),
                         sorted(set(got) - set(want)),
                         sorted(n for n in set(want) & set(got)
                                if want[n] != got[n])))


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload + " untraced", run(workload, 0),
                     SPEC["end_to_end"], problems)
        first = run(workload, 1)
        second = run(workload, 1)
        check_result(workload + " traced", first, SPEC["per_layer"], problems)
        check_result(workload + " traced again", second, SPEC["per_layer"],
                     problems)
        if first is None or second is None:
            continue
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s differs across runs with one seed: "
                                "%r vs %r" % (workload, name, a, b))
        print("%s: checked" % workload)
    for p in problems:
        print("FAIL " + p)
    if not problems:
        print("smoke test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
