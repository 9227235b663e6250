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
//   * transe_step and add_outer_then_tmv keep their operands in registers
//     across what used to be separate axpy/scale/dot calls, but give each
//     element the same operations in the same order: the norms accumulate
//     in DotAvx2's chains, every update is one _mm256_mul_ps and one
//     _mm256_add_ps, and a row is re-loaded before each update, so a row
//     passed in two roles takes both updates in turn.

#include "tensor/simd/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

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

// Two passes over the rows. The first forms both residuals h + r - t and
// h + r - tn and squares them into DotAvx2's even/odd chains (four chains
// in all) and its unfused tail. The second, once the loss is known to be
// positive, forms the residuals again from the rows, which it has not yet
// written, and applies the four updates element block by element block.
float TransEStepAvx2(float* h, float* r, float* t, float* tn, size_t n,
                     float margin, float lr) {
  __m256 pos_e = _mm256_setzero_ps(), pos_o = _mm256_setzero_ps();
  __m256 neg_e = _mm256_setzero_ps(), neg_o = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 hr_e =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(r + i));
    const __m256 hr_o =
        _mm256_add_ps(_mm256_loadu_ps(h + i + 8), _mm256_loadu_ps(r + i + 8));
    const __m256 rp_e = _mm256_sub_ps(hr_e, _mm256_loadu_ps(t + i));
    const __m256 rp_o = _mm256_sub_ps(hr_o, _mm256_loadu_ps(t + i + 8));
    const __m256 rn_e = _mm256_sub_ps(hr_e, _mm256_loadu_ps(tn + i));
    const __m256 rn_o = _mm256_sub_ps(hr_o, _mm256_loadu_ps(tn + i + 8));
    pos_e = _mm256_fmadd_ps(rp_e, rp_e, pos_e);
    pos_o = _mm256_fmadd_ps(rp_o, rp_o, pos_o);
    neg_e = _mm256_fmadd_ps(rn_e, rn_e, neg_e);
    neg_o = _mm256_fmadd_ps(rn_o, rn_o, neg_o);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 hr =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(r + i));
    const __m256 rp = _mm256_sub_ps(hr, _mm256_loadu_ps(t + i));
    const __m256 rn = _mm256_sub_ps(hr, _mm256_loadu_ps(tn + i));
    pos_e = _mm256_fmadd_ps(rp, rp, pos_e);
    neg_e = _mm256_fmadd_ps(rn, rn, neg_e);
  }
  float dot_pos = HorizontalSum(_mm256_add_ps(pos_e, pos_o));
  float dot_neg = HorizontalSum(_mm256_add_ps(neg_e, neg_o));
  for (; i < n; ++i) {
    const float rp = h[i] + r[i] - t[i];
    const float rn = h[i] + r[i] - tn[i];
    dot_pos += rp * rp;
    dot_neg += rn * rn;
  }
  const float f_pos = std::sqrt(dot_pos);
  const float f_neg = std::sqrt(dot_neg);
  const float loss = margin + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;

  const float s_pos = 1.0f / (f_pos + kTransEEps);
  const float s_neg = 1.0f / (f_neg + kTransEEps);
  const __m256 vs_pos = _mm256_set1_ps(s_pos);
  const __m256 vs_neg = _mm256_set1_ps(s_neg);
  const __m256 v_lr = _mm256_set1_ps(lr);
  const __m256 v_neg_lr = _mm256_set1_ps(-lr);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 hv = _mm256_loadu_ps(h + i);
    const __m256 hr = _mm256_add_ps(hv, _mm256_loadu_ps(r + i));
    const __m256 g_pos =
        _mm256_mul_ps(_mm256_sub_ps(hr, _mm256_loadu_ps(t + i)), vs_pos);
    const __m256 g_neg =
        _mm256_mul_ps(_mm256_sub_ps(hr, _mm256_loadu_ps(tn + i)), vs_neg);
    const __m256 g_h = _mm256_sub_ps(g_pos, g_neg);
    const __m256 step_h = _mm256_mul_ps(v_neg_lr, g_h);
    _mm256_storeu_ps(h + i, _mm256_add_ps(hv, step_h));
    _mm256_storeu_ps(r + i, _mm256_add_ps(_mm256_loadu_ps(r + i), step_h));
    _mm256_storeu_ps(t + i, _mm256_add_ps(_mm256_loadu_ps(t + i),
                                          _mm256_mul_ps(v_lr, g_pos)));
    _mm256_storeu_ps(tn + i, _mm256_add_ps(_mm256_loadu_ps(tn + i),
                                           _mm256_mul_ps(v_neg_lr, g_neg)));
  }
  for (; i < n; ++i) {
    const float g_pos = (h[i] + r[i] - t[i]) * s_pos;
    const float g_neg = (h[i] + r[i] - tn[i]) * s_neg;
    const float g_h = g_pos - g_neg;
    h[i] += -lr * g_h;
    r[i] += -lr * g_h;
    t[i] += lr * g_pos;
    tn[i] += -lr * g_neg;
  }
  return loss;
}

// The row pass of AddOuterThenTmvScalar, turned inside out: a block of up
// to 32 columns holds its slice of b and of y in registers while every row
// goes by, so y is stored once per block instead of once per row. Each
// element still takes row r's update before row r's product, rows in
// order, with the same zero-coefficient skips.
template <int kRegs>
void AddOuterThenTmvBlock(float alpha, const float* a, const float* b,
                          float* m, size_t rows, size_t cols, float* y) {
  __m256 vb[kRegs], vy[kRegs];
#pragma GCC unroll 4
  for (int k = 0; k < kRegs; ++k) {
    vb[k] = _mm256_loadu_ps(b + 8 * k);
    vy[k] = _mm256_setzero_ps();
  }
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    const float ar = alpha * a[r];
    __m256 vrow[kRegs];
#pragma GCC unroll 4
    for (int k = 0; k < kRegs; ++k) vrow[k] = _mm256_loadu_ps(row + 8 * k);
    if (ar != 0.0f) {
      const __m256 va = _mm256_set1_ps(ar);
#pragma GCC unroll 4
      for (int k = 0; k < kRegs; ++k) {
        vrow[k] = _mm256_add_ps(vrow[k], _mm256_mul_ps(va, vb[k]));
        _mm256_storeu_ps(row + 8 * k, vrow[k]);
      }
    }
    if (a[r] != 0.0f) {
      const __m256 va = _mm256_set1_ps(a[r]);
#pragma GCC unroll 4
      for (int k = 0; k < kRegs; ++k) {
        vy[k] = _mm256_add_ps(vy[k], _mm256_mul_ps(va, vrow[k]));
      }
    }
  }
#pragma GCC unroll 4
  for (int k = 0; k < kRegs; ++k) _mm256_storeu_ps(y + 8 * k, vy[k]);
}

void AddOuterThenTmvAvx2(float alpha, const float* a, const float* b,
                         float* m, size_t rows, size_t cols, float* y) {
  size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    AddOuterThenTmvBlock<4>(alpha, a, b + c, m + c, rows, cols, y + c);
  }
  for (; c + 8 <= cols; c += 8) {
    AddOuterThenTmvBlock<1>(alpha, a, b + c, m + c, rows, cols, y + c);
  }
  for (; c < cols; ++c) {
    float yc = 0.0f;
    for (size_t r = 0; r < rows; ++r) {
      float& cell = m[r * cols + c];
      const float ar = alpha * a[r];
      if (ar != 0.0f) cell += ar * b[c];
      if (a[r] != 0.0f) yc += a[r] * cell;
    }
    y[c] = yc;
  }
}

}  // namespace

const Ops* Avx2KernelOps() {
  static const Ops ops = {Backend::kAvx2,   "avx2",
                          DotAvx2,          Dot4Avx2,
                          AxpyAvx2,         ScaleAvx2,
                          CountGreaterAvx2, TransEStepAvx2,
                          AddOuterThenTmvAvx2};
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
