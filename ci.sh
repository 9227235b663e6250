#!/usr/bin/env bash
# Tier-1 verification, three times over: a plain release build, an
# ASan+UBSan build and a TSan build, each running the full suite. A
# perfbench smoke leg builds the end-to-end benchmark against the library
# and runs each workload once for a second. A SIMD backend matrix leg then
# re-runs the kernel-sensitive subset under DAAKG_SIMD=scalar and the
# dispatched default to pin down cross-backend determinism of pool,
# matching and selection outputs (and each backend's pinned training and
# selection outputs).
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

# Runs a gtest binary under a --gtest_filter and fails when the filter
# selects no test, so a renamed test cannot silently empty a leg.
run_filtered() {
  local bin="$1" filter="$2" out
  if ! out="$("$bin" --gtest_filter="$filter" 2>&1)"; then
    echo "$out"
    return 1
  fi
  echo "$out" | grep -E '^\[  PASSED  \]'
  if ! grep -Eq '^\[  PASSED  \] [1-9][0-9]* tests?' <<<"$out"; then
    echo "ci.sh: filter '$filter' ran no test in $bin"
    return 1
  fi
}

echo "== release build =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== perfbench smoke (compiles perfbench/ against the library) =="
# One short run per benchmark workload; each must check every output
# correct (its result line reports failed == 0).
for workload in active-loop batch-plan; do
  result="$(python3 perfbench/run.py --workload "$workload" --seconds 1 |
            tail -n 1)"
  python3 - "$workload" "$result" <<'PY'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
print(f"perfbench {workload}: attempted {result['attempted']}, "
      f"failed {result['failed']}")
if result["failed"] != 0:
    sys.exit(f"ci.sh: perfbench {workload} reported failed operations")
PY
done

echo "== SIMD backend matrix (scalar vs dispatched) =="
KERNEL_FILTER='KernelTest.*:TopKAccumulatorTest.*:SimdTest.*'
# The two after PartitionSplitsArePinned check the pool slot shared across
# generators; PowerFromMatchesReferenceSearch and
# PartitionSelectTest.* check both selection searches (PowerFrom and
# PartitionSelect) against their hash-based references and Algorithm 2's
# plan shared across rounds, masks and threads.
POOL_FILTER='ActiveTest.GeneratedPoolMatchesBruteForceMutualTopN:ActiveTest.RepeatedSelectionIsDeterministic:ActiveTest.PartitionSplitsArePinned:ActiveTest.UnchangedModelSharesPoolAcrossGenerators:ActiveTest.PoolAfterEveryMutatorMatchesFreshModel:ActiveTest.PowerFromMatchesReferenceSearch:PartitionSelectTest.MatchesReferenceImplementation:PartitionSelectTest.ReusedPlanMatchesColdPlan:PartitionSelectTest.DegenerateMasksOnColdAndWarmPlans:PartitionSelectTest.ConcurrentEnginesShareOnePlan'
# JointModelTest.* includes the version-keyed refresh tests.
ALIGN_FILTER='MetricsTest.*:JointModelTest.*'
CORE_FILTER='EntitySimilarityPathTest.*:Models/TrainingGoldenTest.*:SelectionGoldenTest.*'
GRAPH_FILTER='AlignmentGraphTest.*:InferTest.EdgeCostsDoNotDependOnThreadCount:InferTest.EqualPoolSharesEdgeCosts'
for backend in scalar ""; do
  if [ -n "$backend" ]; then
    echo "-- DAAKG_SIMD=$backend --"
  else
    echo "-- dispatched default --"
  fi
  DAAKG_SIMD="$backend" run_filtered ./build/tests/tensor_test "$KERNEL_FILTER"
  DAAKG_SIMD="$backend" run_filtered ./build/tests/active_test "$POOL_FILTER"
  DAAKG_SIMD="$backend" run_filtered ./build/tests/align_test "$ALIGN_FILTER"
  DAAKG_SIMD="$backend" run_filtered ./build/tests/core_test "$CORE_FILTER"
  DAAKG_SIMD="$backend" run_filtered ./build/tests/infer_test "$GRAPH_FILTER"
done

echo "== sanitizer build (ASan+UBSan) =="
cmake -B build-asan -S . -DDAAKG_SANITIZE=ON
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== sanitizer build (TSan) =="
# Every target and the full suite: a data race reported anywhere aborts
# its test.
cmake -B build-tsan -S . -DDAAKG_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"

echo "ci.sh: all green"
