#!/usr/bin/env python3
"""Builds the program from source and runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the program's libraries from src/ plus the driver)
as a Release build under $CARGO_TARGET_DIR (default .bench_build); later runs
rebuild incrementally. Build output goes to stderr.

A run is PARTS driver processes, one after another, each measuring for
seconds / PARTS. On a shared host one process can run up to ~1.35x faster
than the next, in a way the driver's host probe does not see (see
perfbench/README.md, Steadiness), so a run's figures are taken over several
processes: op latency quantiles over the ops of every part, peak RSS as the
largest, every other figure as the mean over the parts. The last line of
stdout is the merged JSON result; see perfbench/README.md for workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("managed-stream", "exhaustive-stream", "package-deploy")
PARTS = 5
RUN_TIMEOUT_S = 170


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    generated = [os.path.join(build_dir, name) for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def quantile(values, q):
    """Linear-interpolated quantile, as the driver computes it."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def merge(parts, trace):
    """One result from the parts of a run."""
    merged = {
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {},
    }
    for name, metric in parts[0]["metrics"].items():
        values = [part["metrics"][name]["value"] for part in parts]
        value = max(values) if name == "peak_rss_mb" else sum(values) / len(values)
        merged["metrics"][name] = {"value": value, "unit": metric["unit"]}
    if not trace:
        latencies = [ms for part in parts for ms in part["latencies_ms"]]
        metrics = merged["metrics"]
        metrics["op_latency_p50_ms"]["value"] = quantile(latencies, 0.5)
        metrics["op_latency_tail_ms"]["value"] = quantile(latencies, parts[0]["tail_quantile"])
    return merged


def run_part(driver, args, part, deadline):
    """Runs one driver process; returns its result, or None after reporting why."""
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace),
               "--part", str(part), "--parts", str(PARTS)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:  # run() kills and reaps the driver
        print("run.py: the driver did not finish in time", file=sys.stderr)
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        print(f"run.py: the driver exited with code {result.returncode}", file=sys.stderr)
        return None
    outcome = json.loads(lines[-1])
    expected = {"correct", "attempted", "failed", "metrics"}
    if not args.trace:
        expected |= {"tail_quantile", "latencies_ms"}
    if set(outcome) != expected or outcome["attempted"] < 1:
        print("run.py: malformed driver result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), file=sys.stderr)
    return outcome


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for part in range(PARTS):
        outcome = run_part(driver, args, part, deadline)
        if outcome is None:
            return 1
        parts.append(outcome)
    print(json.dumps(merge(parts, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
