#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark; run from the repo root:

    python3 perfbench/selftest.py

Runs every workload at the self-test scale (the n=2 group cell, two quick
feasibility cells, a few hundred fuzz cases), untraced and traced, and
checks that
  - each run exits 0 and ends with a correct result line holding exactly
    the keys correct, attempted, failed and metrics;
  - the metrics are exactly the ones BENCHMARK.json names, with its units;
  - every per-layer metric is measured by at least one workload;
  - every span file parses and its spans nest inside their parents.
"""

import json
import os
import subprocess
import sys

SEED = 5
WORKLOADS = ("mc_headline", "feasibility_slice", "fuzz_campaign")
CELL_PREFIX = "feasibility.cell_s."
SPAN_KEYS = {"id", "name", "label", "parent", "start_ns", "end_ns", "run_id"}


def check(ok, what):
    if not ok:
        print("selftest FAILED: " + what, file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--scale", "tiny"],
        stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, "%s trace %d exited %d"
          % (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, wanted, what):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + ": result keys " + str(sorted(result)))
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, what + ": not correct")
    units = {m["name"]: m["unit"] for m in wanted}
    check(set(result["metrics"]) == set(units),
          what + ": metric names differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        check(m["unit"] == units[name] and isinstance(m["value"], (int, float)),
              "%s: metric %s is %r" % (what, name, m))


def check_spans(workload):
    path = os.path.join("_perfbench", "spans-%s-seed%d.json" % (workload, SEED))
    with open(path) as f:
        doc = json.load(f)
    spans = {s["id"]: s for s in doc["spans"]}
    check(len(spans) == len(doc["spans"]) and spans, path + ": span ids")
    for s in doc["spans"]:
        check(set(s) == SPAN_KEYS, path + ": span keys " + str(sorted(s)))
        check(s["run_id"] == doc["run_id"], path + ": mixed run ids")
        check(s["start_ns"] <= s["end_ns"], path + ": span ends before start")
        if s["parent"] != -1:
            p = spans.get(s["parent"])
            check(p is not None and p["start_ns"] <= s["start_ns"]
                  and s["end_ns"] <= p["end_ns"],
                  path + ": span %d escapes its parent" % s["id"])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    measured = set()
    for w in WORKLOADS:
        check_result(run(w, 0), spec["end_to_end"], w + " untraced")
        check_result(run(w, 1), spec["per_layer"], w + " traced")
        check_spans(w)
        with open(os.path.join("_perfbench", "result-%s-seed%d-trace1.json"
                               % (w, SEED))) as f:
            measured |= {m["name"] for m in json.load(f)["worker"]["metrics"]}
    # The tiny feasibility slice runs two of the cells; the others' cell
    # metrics are measured only at full scale.
    unmeasured = {m["name"] for m in spec["per_layer"]} - measured
    if any(n.startswith(CELL_PREFIX) for n in measured):
        unmeasured = {n for n in unmeasured if not n.startswith(CELL_PREFIX)}
    check(not unmeasured, "no workload measures " + ", ".join(sorted(unmeasured)))
    print("selftest ok: %d workloads, %d end-to-end and %d per-layer metrics"
          % (len(WORKLOADS), len(spec["end_to_end"]), len(spec["per_layer"])))


if __name__ == "__main__":
    main()
