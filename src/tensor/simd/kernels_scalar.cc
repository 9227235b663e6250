// Scalar reference kernels — the always-compiled parity baseline of the
// dispatch table. The dot kernels keep PR 2's accumulator layout (four
// independent lanes, (0+1)+(2+3) combine, sequential tail) so GCC's SLP
// pass still vectorizes them at SSE width on baseline-ISA builds, and so
// existing bit-parity tests against that layout keep holding.

#include "tensor/simd/simd.h"

namespace daakg {
namespace simd {
namespace {

float DotScalar(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Register-tiled micro-kernel: four dot products of `a` against four `b`
// rows at once. Each a[i..i+3] load is reused across all four columns, and
// the 4x4 accumulator grid is exactly four independent copies of
// DotScalar's lanes, so every out[c] is bitwise identical to
// DotScalar(a, b_c, n).
void Dot4Scalar(const float* a, const float* b0, const float* b1,
                const float* b2, const float* b3, size_t n, float out[4]) {
  float acc[4][4] = {};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      const float av = a[i + j];
      acc[0][j] += av * b0[i + j];
      acc[1][j] += av * b1[i + j];
      acc[2][j] += av * b2[i + j];
      acc[3][j] += av * b3[i + j];
    }
  }
  for (size_t c = 0; c < 4; ++c) {
    out[c] = (acc[c][0] + acc[c][1]) + (acc[c][2] + acc[c][3]);
  }
  for (; i < n; ++i) {
    out[0] += a[i] * b0[i];
    out[1] += a[i] * b1[i];
    out[2] += a[i] * b2[i];
    out[3] += a[i] * b3[i];
  }
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

// Four rows side by side: four independent dependency chains, each row
// still summing its products in index order.
void DotRowsF64Scalar(const float* a, const float* base, size_t stride,
                      const uint32_t* ids, size_t num_rows, size_t n,
                      float* out) {
  auto row = [&](size_t j) {
    return base + (ids != nullptr ? ids[j] : j) * stride;
  };
  size_t j = 0;
  for (; j + 4 <= num_rows; j += 4) {
    const float* r0 = row(j);
    const float* r1 = row(j + 1);
    const float* r2 = row(j + 2);
    const float* r3 = row(j + 3);
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double ai = a[i];
      acc0 += ai * r0[i];
      acc1 += ai * r1[i];
      acc2 += ai * r2[i];
      acc3 += ai * r3[i];
    }
    out[j] = static_cast<float>(acc0);
    out[j + 1] = static_cast<float>(acc1);
    out[j + 2] = static_cast<float>(acc2);
    out[j + 3] = static_cast<float>(acc3);
  }
  for (; j < num_rows; ++j) {
    const float* r = row(j);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * r[i];
    out[j] = static_cast<float>(acc);
  }
}

}  // namespace

const Ops& ScalarOps() {
  static const Ops ops = {Backend::kScalar, "scalar",    DotScalar,
                          Dot4Scalar,       AxpyScalar, ScaleScalar,
                          CountGreaterScalar, DotRowsF64Scalar};
  return ops;
}

}  // namespace simd
}  // namespace daakg
