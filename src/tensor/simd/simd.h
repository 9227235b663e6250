#ifndef DAAKG_TENSOR_SIMD_SIMD_H_
#define DAAKG_TENSOR_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace daakg {
namespace simd {

// Runtime-dispatched SIMD kernel backend (see DESIGN.md, "SIMD dispatch").
//
// The library is compiled for the baseline ISA; only the AVX2 kernel
// translation unit is built with -mavx2 -mfma, and the dispatch table below
// routes to it when the CPU actually supports both features. The scalar
// grid stays the always-compiled parity reference.
//
// Rounding contract (load-bearing — tests rely on it):
//   * Elementwise kernels (axpy, scale) produce bit-identical results to
//     the scalar path on every backend: each output element is one float
//     multiply (+ one add), which rounds the same at any vector width, and
//     the AVX2 TU is compiled with -ffp-contract=off so the compiler never
//     fuses the mul+add into an FMA behind our back. Embedding training
//     therefore follows the exact same trajectory on every backend.
//   * Reduction kernels (dot, dot4) are allowed to differ from scalar in
//     the last ulps: the AVX2 path uses 8-wide FMA accumulation. Within a
//     backend, dot(a, b_c) is bit-identical to column c of dot4(a, b0..b3)
//     — same lanes, same combine, same tail — so cached cells computed via
//     either entry point agree exactly.
//   * dot_rows_f64 is bit-identical across backends: every output is one
//     double accumulator per row, fed in index order with exact float x
//     float products. The AVX2 path vectorizes across rows, never within
//     one row's sum. This is the reduction order of Vector::Dot and
//     Matrix::Multiply, which the training path relies on.
//   * count_greater is exact on every backend (integer result).

enum class Backend { kScalar = 0, kAvx2 = 1 };

// Per-call backend selector (e.g. BlockedKernelOptions::backend). kAuto
// defers to the process-wide choice made by ActiveOps().
enum class Choice { kAuto = 0, kScalar = 1, kAvx2 = 2 };

// Flat kernel table. Pointers are never null in a table returned by the
// accessors below.
struct Ops {
  Backend backend;
  const char* name;  // "scalar" | "avx2"

  // Reductions: sum_i a[i] * b[i]; dot4 computes four columns sharing `a`.
  float (*dot)(const float* a, const float* b, size_t n);
  void (*dot4)(const float* a, const float* b0, const float* b1,
               const float* b2, const float* b3, size_t n, float out[4]);
  // Elementwise: y[i] += alpha * x[i]; x[i] *= s. Bit-identical across
  // backends (see rounding contract).
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  void (*scale)(float* x, size_t n, float s);
  // Number of values[i] strictly greater than `threshold`.
  size_t (*count_greater)(const float* values, size_t n, float threshold);
  // out[j] = float(sum_i double(a[i]) * double(row_j[i])) for j < num_rows,
  // summed in index order, where row_j = base + (ids ? ids[j] : j) * stride.
  void (*dot_rows_f64)(const float* a, const float* base, size_t stride,
                       const uint32_t* ids, size_t num_rows, size_t n,
                       float* out);
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

// Maps a per-call Choice onto a table: kAuto -> ActiveOps(); kAvx2 falls
// back to scalar when unavailable.
const Ops& Resolve(Choice choice);

const char* BackendName(Backend backend);

}  // namespace simd
}  // namespace daakg

#endif  // DAAKG_TENSOR_SIMD_SIMD_H_
