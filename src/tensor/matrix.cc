#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {

Vector Matrix::Row(size_t r) const {
  DAAKG_CHECK_LT(r, rows_);
  Vector out(cols_);
  const float* src = RowData(r);
  for (size_t c = 0; c < cols_; ++c) out[c] = src[c];
  return out;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  DAAKG_CHECK_LT(r, rows_);
  DAAKG_CHECK_EQ(v.dim(), cols_);
  float* dst = RowData(r);
  for (size_t c = 0; c < cols_; ++c) dst[c] = v[c];
}

void Matrix::RowAxpy(size_t r, float alpha, const Vector& v) {
  DAAKG_CHECK_LT(r, rows_);
  DAAKG_CHECK_EQ(v.dim(), cols_);
  // Dispatched but bit-identical to the scalar loop on every backend
  // (rounding contract in simd/simd.h) — this is the trainers' embedding
  // update path, which must not diverge across backends.
  simd::ActiveOps().axpy(alpha, v.data(), RowData(r), cols_);
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::SetIdentity() {
  DAAKG_CHECK_EQ(rows_, cols_);
  SetZero();
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) = 1.0f;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DAAKG_CHECK_EQ(rows_, other.rows_);
  DAAKG_CHECK_EQ(cols_, other.cols_);
  simd::ActiveOps().axpy(1.0f, other.data_.data(), data_.data(),
                         data_.size());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DAAKG_CHECK_EQ(rows_, other.rows_);
  DAAKG_CHECK_EQ(cols_, other.cols_);
  simd::ActiveOps().axpy(-1.0f, other.data_.data(), data_.data(),
                         data_.size());
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  simd::ActiveOps().scale(data_.data(), data_.size(), s);
  return *this;
}

void Matrix::Axpy(float alpha, const Matrix& other) {
  DAAKG_CHECK_EQ(rows_, other.rows_);
  DAAKG_CHECK_EQ(cols_, other.cols_);
  simd::ActiveOps().axpy(alpha, other.data_.data(), data_.data(),
                         data_.size());
}

Vector Matrix::Multiply(const Vector& x) const {
  DAAKG_CHECK_EQ(x.dim(), cols_);
  Vector y(rows_);
  MultiplyInto(x.data(), y.data());
  return y;
}

void Matrix::MultiplyInto(const float* x, float* y) const {
  const simd::Ops& ops = simd::ActiveOps();
  size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    ops.dot4(x, RowData(r), RowData(r + 1), RowData(r + 2), RowData(r + 3),
             cols_, y + r);
  }
  for (; r < rows_; ++r) y[r] = ops.dot(x, RowData(r), cols_);
}

Vector Matrix::TransposeMultiply(const Vector& x) const {
  DAAKG_CHECK_EQ(x.dim(), rows_);
  Vector y(cols_);
  const simd::Ops& ops = simd::ActiveOps();
  for (size_t r = 0; r < rows_; ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    ops.axpy(xr, RowData(r), y.data(), cols_);
  }
  return y;
}

void Matrix::AddOuterThenTransposeMultiply(float alpha, const float* a,
                                           const float* b, float* y) {
  simd::ActiveOps().add_outer_then_tmv(alpha, a, b, data_.data(), rows_,
                                       cols_, y);
}

void Matrix::AddOuter(float alpha, const Vector& a, const Vector& b) {
  DAAKG_CHECK_EQ(a.dim(), rows_);
  DAAKG_CHECK_EQ(b.dim(), cols_);
  const simd::Ops& ops = simd::ActiveOps();
  for (size_t r = 0; r < rows_; ++r) {
    const float ar = alpha * a[r];
    if (ar == 0.0f) continue;
    ops.axpy(ar, b.data(), RowData(r), cols_);
  }
}

float Matrix::Norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

void Matrix::InitUniform(Rng* rng, float scale) {
  for (auto& v : data_) {
    v = static_cast<float>(rng->NextDouble(-scale, scale));
  }
}

void Matrix::InitGaussian(Rng* rng, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng->NextGaussian() * stddev);
  }
}

void Matrix::InitXavier(Rng* rng) {
  if (data_.empty()) return;
  float scale = std::sqrt(6.0f / static_cast<float>(rows_ + cols_));
  InitUniform(rng, scale);
}

}  // namespace daakg
