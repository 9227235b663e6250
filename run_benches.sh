#!/bin/bash
# Runs every reproduction bench in order from the binaries in build/bench.
cd "$(dirname "$0")"
for b in table2_datasets table6_inference_accuracy fig6_pool_recall fig7_partitioning table3_deep_alignment table4_runtime table5_ablation fig5_active_learning micro_kernels; do
  echo "===== $b ====="
  if [ "$b" = "micro_kernels" ]; then
    # Also record machine-readable kernel throughputs (scalar vs dispatched
    # GFLOP/s) for the SIMD backend acceptance check.
    ./build/bench/$b \
      --benchmark_out=BENCH_kernels.json \
      --benchmark_out_format=json
  else
    ./build/bench/$b
  fi
  echo
done
echo "ALL_BENCHES_DONE"
