#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads paper_update paper_read90 \
        --seeds 1 2 3 4 5 --seconds 20 [--trace 0|1]

For each workload and metric it prints the median over the runs, the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median, and that share against the metric's bound
in BENCHMARK.json, then the values of the runs in seed order. Runs of
different workloads alternate, so slow drift in the machine's state spreads
over all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            for name, m in run_once(w, seed, args.seconds, args.trace).items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"done {w} seed {seed}", file=sys.stderr, flush=True)

    for w in args.workloads:
        print(f"\n{w} ({len(args.seeds)} runs)")
        print(f"  {'metric':<36} {'median':>14} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
            share = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<36} {med:>14.4f} {share:>8.3f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
