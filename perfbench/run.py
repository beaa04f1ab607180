#!/usr/bin/env python3
"""Builds the engine benchmark from this checkout's sources and runs one
workload of it.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_small --seed 1 --seconds 20 --trace 0

Workloads: hot_small, churn_rw. Each workload's open-loop rates are
constants in its `why` line in BENCHMARK.json ("N items/s" and, for
churn_rw, "N writes/s"); this script passes them to the driver. The build
goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
its output to stderr. The driver prints a table and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric with --trace 0, every per-layer metric
with --trace 1 (the spans of a traced run are written to
$CARGO_TARGET_DIR/perfbench-traces/). `--selfcheck` runs only the
benchmark's self-check of its own math.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hot_small", "churn_rw")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def rates(workload):
    """The open-loop rates of `workload`, read from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = next(w["why"] for w in spec["workloads"]
                   if w["name"] == workload)
    except (OSError, ValueError, KeyError, StopIteration) as error:
        fail(f"no BENCHMARK.json entry for {workload}: {error!r}")
    found = []
    for unit in ("items/s", "writes/s"):
        match = re.search(r"(\d+) " + re.escape(unit), why)
        if match:
            found += ["--read-rate" if unit == "items/s" else "--write-rate",
                      match.group(1)]
    if "--read-rate" not in found:
        fail(f"the why line of {workload} names no rate in items/s")
    return found


def build(build_dir):
    if not (ROOT / "src" / "engine").is_dir():
        fail(f"no engine sources under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    build(build_dir)
    driver = str(build_dir / "perfbench_driver")
    if args.selfcheck:
        sys.exit(subprocess.run([driver, "--selfcheck"]).returncode)

    work_dir = (build_root / "perfbench-work" /
                f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)] + rates(args.workload)
    if args.trace:
        trace_dir = build_root / "perfbench-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-file",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        code = 124
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
