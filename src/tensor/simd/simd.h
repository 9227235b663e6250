#ifndef DAAKG_TENSOR_SIMD_SIMD_H_
#define DAAKG_TENSOR_SIMD_SIMD_H_

#include <cstddef>

namespace daakg {
namespace simd {

// Runtime-dispatched SIMD kernel backend (see DESIGN.md, "SIMD dispatch").
//
// The library is compiled for the baseline ISA; only the AVX2 kernel
// translation unit is built with -mavx2 -mfma, and the dispatch table below
// routes to it when the CPU actually supports both features. The scalar
// kernels stay the always-compiled reference.
//
// Rounding contract (load-bearing; tests rely on it): every kernel returns
// bit-identical results on every backend, so a seed gives one run.
//   * Reductions (dot, dot4) use one order everywhere: two 8-lane fused
//     multiply-add chains over even and odd 8-blocks, joined lane-wise,
//     reduced by a fixed tree and followed by an unfused sequential tail.
//     The AVX2 path does this with _mm256_fmadd_ps; the scalar path
//     replays it lane by lane with std::fma. dot(a, b_c) is bit-identical
//     to column c of dot4(a, b0..b3), so cached cells computed via either
//     entry point agree exactly.
//     Matrix::MultiplyInto, the TransE and entity-class distances and the
//     mining snapshot's cosines take their sums from these two kernels,
//     so training's mat-vecs and step distances have this one order.
//   * Elementwise kernels (axpy, scale): each output element is one float
//     multiply (+ one add), which rounds the same at any vector width. Both
//     kernel TUs are compiled with -ffp-contract=off so the compiler never
//     fuses the mul+add into an FMA behind our back.
//   * count_greater is exact (integer result).

enum class Backend { kScalar = 0, kAvx2 = 1 };

// Flat kernel table. Pointers are never null in a table returned by the
// accessors below.
struct Ops {
  Backend backend;
  const char* name;  // "scalar" | "avx2"

  // Reductions: sum_i a[i] * b[i]; dot4 computes four columns sharing `a`.
  float (*dot)(const float* a, const float* b, size_t n);
  void (*dot4)(const float* a, const float* b0, const float* b1,
               const float* b2, const float* b3, size_t n, float out[4]);
  // Elementwise: y[i] += alpha * x[i]; x[i] *= s.
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  void (*scale)(float* x, size_t n, float s);
  // Number of values[i] strictly greater than `threshold`.
  size_t (*count_greater)(const float* values, size_t n, float threshold);
};

// The always-available scalar reference table.
const Ops& ScalarOps();

// The AVX2/FMA table, or null when the kernels were not compiled in or the
// CPU lacks AVX2+FMA.
const Ops* Avx2OpsOrNull();
inline bool Avx2Available() { return Avx2OpsOrNull() != nullptr; }

// The process-wide backend: best available unless overridden by the
// environment (DAAKG_SIMD=scalar|avx2). Resolved
// once on first use; logs the detected/selected backend.
const Ops& ActiveOps();

const char* BackendName(Backend backend);

}  // namespace simd
}  // namespace daakg

#endif  // DAAKG_TENSOR_SIMD_SIMD_H_
