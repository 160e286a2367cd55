#!/usr/bin/env python3
"""Summarizes alternating perfbench pairs and keeps the perfbench ledger.

Usage, from the repository root:

    python3 scripts/perfbench_ledger.py --workload paper_update \
        --seeds 901 902 ... --seconds 24 \
        --parent p901.out p902.out ... --change c901.out c902.out ... \
        [--gain ops_s.data_cw] \
        [--append --parent-commit 5d0344c [--change-commit 5d0344c+]]

    python3 scripts/perfbench_ledger.py --check

Each run file is the saved standard output of one `perfbench/run.py`
run; only its last line (the JSON result) is read. The i-th parent run and
the i-th change run form pair i, and the pairs should have alternated which
side ran first.

For every metric of BENCHMARK.json that the runs report, the summary
prints the median and quartiles (statistics.quantiles, n=4) of each side,
the ratio of the change's median to the parent's, and the number of pairs
the change won in the metric's better direction. End-to-end metrics whose
change median is worse than the parent's by more than their bound are
flagged. With --gain, it prints the benchmark's gain rule for that metric:
the change must win at least nine pairs in ten, and its median must differ
from the parent's, in the better direction, by more than the parent's
interquartile range.

--append adds one line per side to BENCH_perfbench.json: the commit, the
workload, the seeds, the seconds per run, and the median and quartiles of
every metric. A change measured before it is committed is recorded as its
parent's hash followed by "+". Only untraced sets are appended: a traced
run's end-to-end numbers include the tracer's cost. --check validates the ledger: every line
parses as a JSON object with those fields, and every metric name appears in
BENCHMARK.json. It exits non-zero on the first bad line.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_perfbench.json")
FIELDS = ("commit", "side", "workload", "seeds", "seconds", "metrics")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, end_to_end=True)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, end_to_end=False)
    return metrics


def load_run(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty run output")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"{path}: run was not correct or had failures")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs):
    """Per-metric {median, q1, q3} over a list of {metric: value} runs."""
    out = {}
    for name in runs[0]:
        vals = [r[name] for r in runs if name in r]
        q1, med, q3 = quartiles(vals)
        out[name] = {"median": med, "q1": q1, "q3": q3}
    return out


def report(spec, parent, change, gain):
    names = [n for n in spec if n in parent[0] and n in change[0]]
    ps, cs = summarize(parent), summarize(change)
    pairs = len(parent)
    print(f"{pairs} pairs")
    print(f"  {'metric':<38} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'ratio':>7} {'wins':>6}")
    for name in names:
        lower = spec[name]["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c[name] < p[name] if lower else c[name] > p[name]))
        p, c = ps[name], cs[name]
        ratio = c["median"] / p["median"] if p["median"] else math.inf
        flag = ""
        bound = spec[name].get("bound")
        if spec[name]["end_to_end"] and bound is not None and p["median"]:
            worse = (ratio - 1) if lower else (1 - ratio)
            if worse > bound:
                flag = "  WORSE THAN BOUND"
        fmt = "{q1:.4g}/{median:.4g}/{q3:.4g}"
        print(f"  {name:<38} {fmt.format(**p):>32} {fmt.format(**c):>32} "
              f"{ratio:>7.3f} {wins:>3}/{pairs}{flag}")
    if gain is None:
        return True
    if gain not in names:
        raise SystemExit(f"--gain {gain}: not reported by the runs")
    lower = spec[gain]["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change)
               if (c[gain] < p[gain] if lower else c[gain] > p[gain]))
    p, c = ps[gain], cs[gain]
    iqr = p["q3"] - p["q1"]
    gap = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    need = math.ceil(0.9 * pairs)
    ok = wins >= need and gap > iqr
    print(f"gain rule for {gain}: wins {wins}/{pairs} (need {need}), "
          f"median gap {gap:.6g} vs parent IQR {iqr:.6g}: "
          f"{'HOLDS' if ok else 'FAILS'}")
    return ok


def append(spec, args, parent, change):
    with open(args.ledger, "a") as f:
        for side, runs, commit in (("parent", parent, args.parent_commit),
                                   ("change", change,
                                    args.change_commit
                                    or args.parent_commit + "+")):
            metrics = {n: v for n, v in summarize(runs).items() if n in spec}
            line = {"commit": commit, "side": side,
                    "workload": args.workload, "seeds": args.seeds,
                    "seconds": args.seconds, "metrics": metrics}
            f.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended 2 lines to {os.path.relpath(args.ledger, ROOT)}")


def check(spec, path):
    with open(path) as f:
        for number, text in enumerate(f, 1):
            where = f"{os.path.relpath(path, ROOT)}:{number}"
            try:
                line = json.loads(text)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{where}: not JSON: {e}")
            if not isinstance(line, dict) or any(k not in line for k in FIELDS):
                raise SystemExit(f"{where}: needs fields {', '.join(FIELDS)}")
            for name, stats in line["metrics"].items():
                if name not in spec:
                    raise SystemExit(f"{where}: {name} is not in BENCHMARK.json")
                if set(stats) != {"median", "q1", "q3"}:
                    raise SystemExit(f"{where}: {name} needs median, q1, q3")
    print(f"{os.path.relpath(path, ROOT)}: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--ledger", default=LEDGER)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--parent", nargs="+")
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--gain")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    args = parser.parse_args()
    spec = load_spec()

    if args.check:
        check(spec, args.ledger)
        return 0
    if not (args.workload and args.parent and args.change):
        parser.error("--workload, --parent and --change are required")
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need one run per pair each")
    parent = [load_run(p) for p in args.parent]
    change = [load_run(c) for c in args.change]
    print(args.workload)
    ok = report(spec, parent, change, args.gain)
    if args.append:
        if not (args.seeds and args.seconds and args.parent_commit):
            parser.error("--append needs --seeds, --seconds, --parent-commit")
        if len(args.seeds) != len(args.parent):
            parser.error("--seeds needs one seed per pair")
        if any("tracing.overhead_pct" in r for r in parent + change):
            parser.error("--append takes untraced runs only")
        append(spec, args, parent, change)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
