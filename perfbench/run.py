#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload mc_headline [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/bench.exe with dune, then runs the workload in its own
process (so its peak resident set belongs to that workload alone).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Set-up time
is measured from process spawn to the worker's first timed library call,
over several set-up-only spawns plus the measured run, and reported as
the median.  --trace 1 prints the per-layer metrics, timed from spans the
worker records around each layer's calls; a layer the workload does not
run reports 0.

The last stdout line is the JSON result; a failed known-answer check sets
"correct" to false and the exit code to 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKER = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = "_perfbench"
SETUP_SPAWNS = 15
WORKER_TIMEOUT_S = 170
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # reserved for confirming claimed gains; do not tune on it
WORKLOADS = ("mc_headline", "feasibility_slice", "fuzz_campaign")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="input seed (default %d; held-out seed %d)"
                   % (DEFAULT_SEED, HELD_OUT_SEED))
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny is the self-test scale")
    return p.parse_args()


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune"),
                 "BENCHMARK.json"):
        if not os.path.exists(need):
            die("run from the repository root: %s is missing" % need)
    # The shared dune cache lives outside the checkout: keep it out.
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if proc.returncode != 0 or not os.path.exists(WORKER):
        die("building perfbench/bench.exe failed")


def spawn(argv):
    """Run the worker once; return (spawn wall time, its JSON result)."""
    spawned = time.time()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("worker exceeded %d s: %s" % (WORKER_TIMEOUT_S, " ".join(argv)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("worker failed (exit %d): %s" % (proc.returncode, " ".join(argv)))
    return spawned, json.loads(lines[-1])


def main():
    args = parse_args()
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    argv = [WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale]

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SPAWNS):
            spawned, r = spawn(argv + ["--setup-only"])
            setups.append(r["first_call_wall"] - spawned)
    spawned, result = spawn(argv)
    measured = {m["name"]: (m["value"], m["unit"]) for m in result["metrics"]}
    if args.trace == 0:
        setups.append(result["first_call_wall"] - spawned)
        measured["setup_s"] = (statistics.median(setups), "s")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    stray = sorted(set(measured) - names)
    if stray:
        die("worker emitted metrics BENCHMARK.json does not name: %s"
            % ", ".join(stray))
    metrics = {}
    for m in wanted:
        value, unit = measured.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"] or value is None:
            die("metric %s: worker reported %r %s, BENCHMARK.json says %s"
                % (m["name"], value, unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}

    host = dict(result["host"], nproc=os.cpu_count(),
                affinity_cpus=len(os.sched_getaffinity(0)),
                setup_spawns=len(setups))
    record = {"workload": args.workload, "host": host, "worker": result,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        print("%-42s %20.6f %s" % (name, m["value"], m["unit"]))
    print("host " + json.dumps(host, sort_keys=True))
    correct = bool(result["correct"]) and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
