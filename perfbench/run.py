#!/usr/bin/env python3
"""Builds and runs the cwdb benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_update --seed 1 --seconds 20 --trace 0

Each run configures and builds the engine and the benchmark program into
.bench_build/perfbench (a Release build of ../src); after the first run
that only checks the build is up to date. The program's databases live in a fresh directory under
.bench_build/run that is removed when the run ends, whatever its outcome.
With --trace 1 the spans go to .bench_build/spans/<workload>-<seed>.tsv.

The program prints each metric by name with its unit and, as the last line
of standard output, one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when the build fails, a
correctness gate fails or the run does not finish in time.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "cwdb_perfbench")
WORKLOADS = ("paper_update", "paper_read90")
BUILD_TIMEOUT_S = 360
RUN_TIMEOUT_S = 170


def build(env):
    """Configures and builds the program; build output goes to stderr."""
    cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S,
                   env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S,
                   env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every table (smoke test only)")
    args = parser.parse_args()

    # Compiler and program temporary files stay inside the checkout too.
    tmp_dir = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(WORK_DIR, "run"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(WORK_DIR, "run"))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.trace:
        spans_dir = os.path.join(WORK_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{args.workload}-{args.seed}.tsv")]
    if args.tiny:
        cmd.append("--tiny")

    # SIGTERM ends this script through the finally below, which stops the
    # program and removes its databases.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
