#!/usr/bin/env python3
"""Runs one workload of the DAAKG end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload active-loop --seed 17 --seconds 20 --trace 0

Run it from the root of the repository. It builds perfbench/ together with
the library sources under src/ into .bench_build/perfbench (CMake, the
project's default RelWithDebInfo build), runs the benchmark binary and
forwards its output. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the metrics are the ones
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer list
with --trace 1. The "# " table above it holds every metric the binary
reports, including the self time of every span name found in the trace,
listed or not. A listed self.<span>_s whose span is not in the trace reads 0
in the JSON, and a table line names it as absent. A workload that
BENCHMARK.json does not list (seed-train) prints every metric the binary
reports. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
BINARY = BUILD_DIR / "daakg_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source_dir), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def select_metrics(result, spec, workload, trace):
    """Keeps the metrics BENCHMARK.json declares, in its order."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        return result["metrics"]
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for metric in declared:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is None and trace and name.startswith("self."):
            # BENCHMARK.json fixes the per-layer names, so a listed span
            # that did not run (or no longer exists) still needs a value.
            print(f"# {name:34s} absent from the trace, reported as 0")
            got = {"value": 0.0, "unit": metric["unit"]}
        if got is None:
            fail(f"metric {name} missing from the {workload} output")
        if got["unit"] != metric["unit"]:
            fail(f"metric {name} has unit {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        out[name] = got
    return out


def main():
    # A terminated run raises SystemExit, so subprocess.run kills and reaps
    # the child it is waiting for instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["seed-train", "active-loop", "batch-plan"])
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = Path(__file__).resolve().parent
    build(source_dir)
    spec_path = Path("BENCHMARK.json")
    if not spec_path.exists():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the benchmark output is not JSON")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select_metrics(result, spec, args.workload, args.trace),
    }))


if __name__ == "__main__":
    main()
