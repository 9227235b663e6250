// AVX2/FMA kernels. This is the ONLY translation unit compiled with
// -mavx2 -mfma (plus -ffp-contract=off; see below) — everything else in
// the binary stays baseline-ISA, and dispatch.cc only routes here after
// runtime CPU detection, so the binary cannot SIGILL on non-AVX2 hosts.
//
// Rounding contract (simd.h): every kernel matches its scalar twin in
// kernels_scalar.cc bit for bit.
//   * dot/dot4 use explicit 8-wide _mm256_fmadd_ps accumulation, whose
//     order DotScalar replays lane by lane with std::fma; dot(a, b_c) is
//     bitwise identical to column c of dot4 (same pair of accumulator
//     chains, same join and horizontal reduce, same scalar tail).
//   * axpy/scale use separate mul and add so every output element rounds
//     exactly like the scalar path. -ffp-contract=off is required for
//     that: GCC implements _mm256_mul_ps/_mm256_add_ps as plain vector
//     * / + which its default -ffp-contract=fast would silently fuse.

#include "tensor/simd/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace daakg {
namespace simd {
namespace {

// Deterministic reduce: lanes (0+4, 1+5, 2+6, 3+7), then (02+46 ...), then
// the final pair — a fixed tree independent of surrounding code.
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
  __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x55));
  return _mm_cvtss_f32(sum1);
}

// Two independent FMA chains (even / odd 8-lane blocks) hide the fused
// multiply-add latency; a lone leftover 8-block goes into the even chain.
// The chains join as even + odd before the horizontal reduce.
float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc_e = _mm256_setzero_ps();
  __m256 acc_o = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc_e =
        _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc_e);
    acc_o = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                            _mm256_loadu_ps(b + i + 8), acc_o);
  }
  for (; i + 8 <= n; i += 8) {
    acc_e =
        _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc_e);
  }
  float out = HorizontalSum(_mm256_add_ps(acc_e, acc_o));
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

// Four columns sharing the `a` loads per step. Each column's two
// accumulator chains, join, reduce and tail are exactly DotAvx2's, so
// out[c] is bitwise DotAvx2(a, b_c, n) — cells computed via either entry
// point agree.
void Dot4Avx2(const float* a, const float* b0, const float* b1,
              const float* b2, const float* b3, size_t n, float out[4]) {
  __m256 acc0_e = _mm256_setzero_ps(), acc0_o = _mm256_setzero_ps();
  __m256 acc1_e = _mm256_setzero_ps(), acc1_o = _mm256_setzero_ps();
  __m256 acc2_e = _mm256_setzero_ps(), acc2_o = _mm256_setzero_ps();
  __m256 acc3_e = _mm256_setzero_ps(), acc3_o = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 av_e = _mm256_loadu_ps(a + i);
    const __m256 av_o = _mm256_loadu_ps(a + i + 8);
    acc0_e = _mm256_fmadd_ps(av_e, _mm256_loadu_ps(b0 + i), acc0_e);
    acc0_o = _mm256_fmadd_ps(av_o, _mm256_loadu_ps(b0 + i + 8), acc0_o);
    acc1_e = _mm256_fmadd_ps(av_e, _mm256_loadu_ps(b1 + i), acc1_e);
    acc1_o = _mm256_fmadd_ps(av_o, _mm256_loadu_ps(b1 + i + 8), acc1_o);
    acc2_e = _mm256_fmadd_ps(av_e, _mm256_loadu_ps(b2 + i), acc2_e);
    acc2_o = _mm256_fmadd_ps(av_o, _mm256_loadu_ps(b2 + i + 8), acc2_o);
    acc3_e = _mm256_fmadd_ps(av_e, _mm256_loadu_ps(b3 + i), acc3_e);
    acc3_o = _mm256_fmadd_ps(av_o, _mm256_loadu_ps(b3 + i + 8), acc3_o);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    acc0_e = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + i), acc0_e);
    acc1_e = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + i), acc1_e);
    acc2_e = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + i), acc2_e);
    acc3_e = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + i), acc3_e);
  }
  out[0] = HorizontalSum(_mm256_add_ps(acc0_e, acc0_o));
  out[1] = HorizontalSum(_mm256_add_ps(acc1_e, acc1_o));
  out[2] = HorizontalSum(_mm256_add_ps(acc2_e, acc2_o));
  out[3] = HorizontalSum(_mm256_add_ps(acc3_e, acc3_o));
  for (; i < n; ++i) {
    out[0] += a[i] * b0[i];
    out[1] += a[i] * b1[i];
    out[2] += a[i] * b2[i];
    out[3] += a[i] * b3[i];
  }
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAvx2(float* x, size_t n, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

size_t CountGreaterAvx2(const float* values, size_t n, float threshold) {
  const __m256 vt = _mm256_set1_ps(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 cmp =
        _mm256_cmp_ps(_mm256_loadu_ps(values + i), vt, _CMP_GT_OQ);
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(cmp))));
  }
  for (; i < n; ++i) count += values[i] > threshold;
  return count;
}

}  // namespace

const Ops* Avx2KernelOps() {
  static const Ops ops = {Backend::kAvx2, "avx2",    DotAvx2,
                          Dot4Avx2,       AxpyAvx2, ScaleAvx2,
                          CountGreaterAvx2};
  return &ops;
}

}  // namespace simd
}  // namespace daakg

#else  // !(__AVX2__ && __FMA__)

namespace daakg {
namespace simd {

// Compiled without AVX2/FMA (non-x86 target or compiler lacking the
// flags): report the kernels as unavailable.
const Ops* Avx2KernelOps() { return nullptr; }

}  // namespace simd
}  // namespace daakg

#endif
