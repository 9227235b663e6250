#!/usr/bin/env python3
"""Compare fresh bench JSON against the committed baselines.

One mode, matched to the baseline file in the repo root:

  kernels  google-benchmark JSON (BENCH_kernels.json). Per-benchmark
           throughput is items_per_second when reported, else 1/real_time.
           A benchmark regresses when fresh throughput falls below
           base * (1 - threshold).

Exit status is 1 when any metric regresses past the threshold, with a
table of regressions on stdout. Benchmarks present on only one side are
reported but do not fail the gate (benches evolve; the gate is for the
common subset). A context mismatch (e.g. a scalar-SIMD fresh run against
an AVX2 baseline) is warned about, since it makes throughput deltas
meaningless.

Usage:
  tools/bench_diff.py kernels BENCH_kernels.json fresh_kernels.json [--threshold=0.15]
"""

import json
import sys

DEFAULT_THRESHOLD = 0.15


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot load {path}: {e}")


def kernel_throughputs(doc, path):
    benches = doc.get("benchmarks")
    if not isinstance(benches, list):
        sys.exit(f"bench_diff: {path} has no 'benchmarks' list "
                 "(not google-benchmark JSON?)")
    out = {}
    for b in benches:
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if not name:
            continue
        if "items_per_second" in b:
            out[name] = float(b["items_per_second"])
        elif float(b.get("real_time", 0.0)) > 0.0:
            out[name] = 1.0 / float(b["real_time"])
    return out


def check_kernel_context(base, fresh):
    warnings = []
    bc, fc = base.get("context", {}), fresh.get("context", {})
    for key in ("daakg_simd_backend", "daakg_avx2_available",
                "library_build_type"):
        bv, fv = bc.get(key), fc.get(key)
        if bv is not None and fv is not None and bv != fv:
            warnings.append(f"context mismatch: {key} baseline={bv} "
                            f"fresh={fv} (throughput deltas are suspect)")
    return warnings


def diff_kernels(base_doc, fresh_doc, base_path, fresh_path, threshold):
    base = kernel_throughputs(base_doc, base_path)
    fresh = kernel_throughputs(fresh_doc, fresh_path)
    warnings = check_kernel_context(base_doc, fresh_doc)
    regressions = []
    for name in sorted(base):
        if name not in fresh:
            warnings.append(f"removed benchmark (not in fresh run): {name}")
            continue
        floor = base[name] * (1.0 - threshold)
        if fresh[name] < floor:
            regressions.append(
                (f"kernels:{name}", "throughput", base[name], fresh[name]))
    for name in sorted(set(fresh) - set(base)):
        warnings.append(f"new benchmark (no baseline): {name}")
    return regressions, warnings


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = DEFAULT_THRESHOLD
    for a in argv[1:]:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
        elif a.startswith("--"):
            sys.exit(f"bench_diff: unknown flag {a}\n\n{__doc__}")
    if len(args) != 3 or args[0] != "kernels":
        sys.exit(__doc__)
    mode, base_path, fresh_path = args
    base_doc, fresh_doc = load(base_path), load(fresh_path)

    regressions, warnings = diff_kernels(base_doc, fresh_doc, base_path,
                                         fresh_path, threshold)

    for w in warnings:
        print(f"bench_diff: WARNING: {w}")
    if regressions:
        print(f"\nbench_diff: {len(regressions)} regression(s) past "
              f"{threshold:.0%} ({mode}, base={base_path}):")
        print(f"{'benchmark':<56} {'metric':<16} {'base':>12} {'fresh':>12} "
              f"{'delta':>8}")
        for name, metric, bv, fv in regressions:
            delta = (fv - bv) / bv if bv else float("nan")
            print(f"{name:<56} {metric:<16} {bv:>12.4g} {fv:>12.4g} "
                  f"{delta:>+8.1%}")
        return 1
    print(f"bench_diff: OK — {mode} fresh run within {threshold:.0%} of "
          f"{base_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
