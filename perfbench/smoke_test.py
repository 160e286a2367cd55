#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny table sizes.

Usage, from the repository root:

    python3 perfbench/smoke_test.py

For each workload it makes one untraced and one traced run of
perfbench/run.py with --tiny and checks that the run exits 0 with a correct
result, that every end-to-end (untraced) or per-layer (traced) metric named
in BENCHMARK.json is printed with its unit, both as a text line and in the
closing JSON object, and that the traced run writes its span file with a
span of every name. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_NAMES = ("workload.txn", "workload.op", "txn.begin", "txn.read_field",
              "txn.update", "txn.insert", "txn.commit", "ckpt.checkpoint",
              "protect.audit", "core.reopen", "recovery.restart",
              "protect.repair", "recovery.delete_txn")


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def run(workload, trace, expected):
    seed = 7
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    label = f"{workload} trace={trace}"
    check(out.returncode == 0,
          f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    check(f"seed {seed}" in lines[0], f"{label}: seed not echoed")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: result {result}")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{label}: metric names differ: "
          f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        check(metrics[name]["unit"] == unit, f"{label}: unit of {name}")
        check(isinstance(metrics[name]["value"], (int, float)),
              f"{label}: value of {name}")
        text = [l.split() for l in lines[1:-1] if l.split()[:1] == [name]]
        check(len(text) == 1 and text[0][2] == unit,
              f"{label}: text line for {name}")
    if trace:
        path = os.path.join(ROOT, ".bench_build", "spans",
                            f"{workload}-{seed}.tsv")
        check(os.path.exists(path), f"{label}: no span file {path}")
        with open(path) as f:
            header = f.readline().split()
            names = {row.split("\t")[3] for row in f}
        check(header == ["id", "parent", "txn", "name", "tag", "start_ns",
                         "end_ns"], f"{label}: span header {header}")
        check(set(SPAN_NAMES) <= names,
              f"{label}: span names missing {set(SPAN_NAMES) - names}")
    print(f"ok {label}: {len(metrics)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        run(w["name"], 0, end_to_end)
        run(w["name"], 1, per_layer)
    print("smoke test passed")


if __name__ == "__main__":
    main()
