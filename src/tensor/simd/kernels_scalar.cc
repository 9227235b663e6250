// Scalar reference kernels, the always-compiled parity baseline of the
// dispatch table. Every kernel returns bit for bit what its AVX2 twin in
// kernels_avx2.cc returns (simd.h rounding contract). The TU is compiled
// with -ffp-contract=off so the compiler never fuses a mul+add on its own;
// the only fused steps are the explicit std::fma calls of OrderedDot.

#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {
namespace simd {
namespace {

// DotAvx2's reduction order, one lane at a time, over the products
// a(i) * b(i): two 8-lane accumulator chains over even and odd 8-blocks (a
// lone leftover 8-block goes into the even chain), each step one fused
// multiply-add, exactly _mm256_fmadd_ps per lane. The chains join lane-wise
// as even + odd, HorizontalSum's fixed tree reduces the 8 lanes, and the
// tail adds unfused products in order.
template <typename A, typename B>
float OrderedDot(A a, B b, size_t n) {
  float even[8] = {};
  float odd[8] = {};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t l = 0; l < 8; ++l) {
      even[l] = std::fma(a(i + l), b(i + l), even[l]);
      odd[l] = std::fma(a(i + 8 + l), b(i + 8 + l), odd[l]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      even[l] = std::fma(a(i + l), b(i + l), even[l]);
    }
  }
  float v[8];
  for (size_t l = 0; l < 8; ++l) v[l] = even[l] + odd[l];
  float out = ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
  for (; i < n; ++i) out += a(i) * b(i);
  return out;
}

float DotScalar(const float* a, const float* b, size_t n) {
  return OrderedDot([a](size_t i) { return a[i]; },
                    [b](size_t i) { return b[i]; }, n);
}

void Dot4Scalar(const float* a, const float* b0, const float* b1,
                const float* b2, const float* b3, size_t n, float out[4]) {
  out[0] = DotScalar(a, b0, n);
  out[1] = DotScalar(a, b1, n);
  out[2] = DotScalar(a, b2, n);
  out[3] = DotScalar(a, b3, n);
}

void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(float* x, size_t n, float s) {
  for (size_t i = 0; i < n; ++i) x[i] *= s;
}

size_t CountGreaterScalar(const float* values, size_t n, float threshold) {
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += values[i] > threshold;
    c1 += values[i + 1] > threshold;
    c2 += values[i + 2] > threshold;
    c3 += values[i + 3] > threshold;
  }
  size_t count = c0 + c1 + c2 + c3;
  for (; i < n; ++i) count += values[i] > threshold;
  return count;
}

// The residuals h + r - t and h + r - tn are recomputed wherever they are
// read (their norms, then the step); an element is written only after all
// four of its inputs are read, so aliased rows read their old values.
float TransEStepScalar(float* h, float* r, float* t, float* tn, size_t n,
                       float margin, float lr) {
  const auto res_pos = [=](size_t i) { return h[i] + r[i] - t[i]; };
  const auto res_neg = [=](size_t i) { return h[i] + r[i] - tn[i]; };
  const float f_pos = std::sqrt(OrderedDot(res_pos, res_pos, n));
  const float f_neg = std::sqrt(OrderedDot(res_neg, res_neg, n));
  const float loss = margin + f_pos - f_neg;
  if (loss <= 0.0f) return 0.0f;
  const float s_pos = 1.0f / (f_pos + kTransEEps);
  const float s_neg = 1.0f / (f_neg + kTransEEps);
  for (size_t i = 0; i < n; ++i) {
    const float g_pos = res_pos(i) * s_pos;
    const float g_neg = res_neg(i) * s_neg;
    const float g_h = g_pos - g_neg;
    h[i] += -lr * g_h;
    r[i] += -lr * g_h;
    t[i] += lr * g_pos;
    tn[i] += -lr * g_neg;
  }
  return loss;
}

void AddOuterThenTmvScalar(float alpha, const float* a, const float* b,
                           float* m, size_t rows, size_t cols, float* y) {
  for (size_t c = 0; c < cols; ++c) y[c] = 0.0f;
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    const float ar = alpha * a[r];
    if (ar != 0.0f) AxpyScalar(ar, b, row, cols);
    if (a[r] != 0.0f) AxpyScalar(a[r], row, y, cols);
  }
}

}  // namespace

const Ops& ScalarOps() {
  static const Ops ops = {Backend::kScalar,   "scalar",
                          DotScalar,          Dot4Scalar,
                          AxpyScalar,         ScaleScalar,
                          CountGreaterScalar, TransEStepScalar,
                          AddOuterThenTmvScalar};
  return ops;
}

}  // namespace simd
}  // namespace daakg
