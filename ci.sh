#!/usr/bin/env bash
# Tier-1 verification: a release build that fails on any compiler warning
# (-DDAAKG_WERROR=ON), an ASan+UBSan build and a
# TSan build, each running the full suite; the two sanitizer builds also run
# the active_alignment and custom_kg examples end to end. A perfbench smoke leg builds the
# end-to-end benchmark against the library and runs each workload for a
# second twice: untraced, and with --trace 1, which drives every span site
# under a live trace session and must drop no event. A SIMD leg re-runs the full release suite under
# DAAKG_SIMD=scalar: every backend rounds alike, so the golden tests must
# hold their one pin on the scalar kernels too, and each perfbench workload
# must report the same quality, digit for digit, as its smoke run.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

# Opt-in bench regression gate: `./ci.sh bench-diff` rebuilds the kernel
# micro-bench, re-runs it into a scratch dir, and fails if throughput
# regresses >15% against the committed baseline (BENCH_kernels.json). Kept
# out of the default legs because bench runs are minutes-long and noisy on
# loaded machines.
if [ "${1:-}" = "bench-diff" ]; then
  echo "== bench regression gate =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target micro_kernels
  FRESH="$(mktemp -d)"
  trap 'rm -rf "$FRESH"' EXIT
  ./build/bench/micro_kernels \
    --benchmark_out="$FRESH/kernels.json" --benchmark_out_format=json
  python3 tools/bench_diff.py kernels BENCH_kernels.json "$FRESH/kernels.json"
  echo "ci.sh bench-diff: all green"
  exit 0
fi

echo "== release build (warnings are errors) =="
cmake -B build -S . -DDAAKG_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== perfbench smoke (compiles perfbench/ against the library) =="
# Two short runs per benchmark workload, untraced and traced; each must
# check every output correct (its result line reports failed == 0), and the
# traced one must drop no trace event (obs.trace_dropped == 0). The untraced
# result lines are kept for the SIMD leg.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
for workload in active-loop batch-plan; do
  for trace in 0 1; do
    result="$(python3 perfbench/run.py --workload "$workload" --seconds 1 \
                --trace "$trace" | tail -n 1)"
    if [ "$trace" = "0" ]; then echo "$result" > "$SMOKE/$workload.json"; fi
    python3 - "$workload" "$trace" "$result" <<'PY'
import json, sys
workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3]
result = json.loads(line)
run = f"perfbench {workload} --trace {trace}"
print(f"{run}: attempted {result['attempted']}, failed {result['failed']}")
if result["failed"] != 0:
    sys.exit(f"ci.sh: {run} reported failed operations")
if trace == "1":
    dropped = result["metrics"]["obs.trace_dropped"]["value"]
    print(f"{run}: obs.trace_dropped {dropped:g}")
    if dropped > 0:
        sys.exit(f"ci.sh: {run} dropped trace events")
PY
  done
done

echo "== SIMD leg: full suite on the scalar kernels =="
DAAKG_SIMD=scalar ctest --test-dir build --output-on-failure -j "$JOBS"
# Each workload again on the scalar kernels. A --seconds 1 run is the
# workload's minimum unit count on either backend, so every metric in units
# of count or ratio (the quality metrics) must equal the smoke run's exactly.
for workload in active-loop batch-plan; do
  result="$(DAAKG_SIMD=scalar python3 perfbench/run.py --workload "$workload" \
              --seconds 1 --trace 0 | tail -n 1)"
  python3 - "$workload" "$result" "$SMOKE/$workload.json" <<'PY'
import json, sys
workload, line, smoke_path = sys.argv[1], sys.argv[2], sys.argv[3]
scalar = json.loads(line)["metrics"]
with open(smoke_path) as f:
    smoke = json.load(f)["metrics"]
differ = []
for name, m in smoke.items():
    if m["unit"] not in ("count", "ratio"):
        continue
    print(f"perfbench {workload} scalar: {name} {scalar[name]['value']!r}"
          f" (smoke run {m['value']!r})")
    if scalar[name] != m:
        differ.append(name)
if differ:
    sys.exit(f"ci.sh: perfbench {workload} quality differs on the scalar "
             f"kernels: {', '.join(differ)}")
PY
done

echo "== sanitizer build (ASan+UBSan) =="
# The full suite, then end-to-end runs of the public API: the
# active_alignment example (Create -> Train -> active loop, two strategies)
# and the custom_kg example (user-built graphs, TSV save and load, Create ->
# Train -> ExtractAlignment).
cmake -B build-asan -S . -DDAAKG_SANITIZE=ON
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"
./build-asan/examples/active_alignment > /dev/null
./build-asan/examples/custom_kg > /dev/null

echo "== sanitizer build (TSan) =="
# Every target, the full suite and the same end-to-end examples: a data
# race reported anywhere aborts its test or the run.
cmake -B build-tsan -S . -DDAAKG_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/examples/active_alignment > /dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/examples/custom_kg > /dev/null

echo "ci.sh: all green"
