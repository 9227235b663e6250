#include "tensor/vector.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {

// Elementwise mutators route through the dispatched axpy/scale kernels,
// which are bit-identical to the scalar loops on every backend (rounding
// contract in simd/simd.h) — so trainers take the same trajectory whether
// or not AVX2 is available. Reductions (Dot, norms) stay double-accumulated
// scalar: vectorizing them would change rounding across backends.

void Vector::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Vector& Vector::operator+=(const Vector& other) {
  DAAKG_CHECK_EQ(dim(), other.dim());
  simd::ActiveOps().axpy(1.0f, other.data_.data(), data_.data(),
                         data_.size());
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  DAAKG_CHECK_EQ(dim(), other.dim());
  simd::ActiveOps().axpy(-1.0f, other.data_.data(), data_.data(),
                         data_.size());
  return *this;
}

Vector& Vector::operator*=(float s) {
  simd::ActiveOps().scale(data_.data(), data_.size(), s);
  return *this;
}

Vector& Vector::operator/=(float s) {
  DAAKG_CHECK_NE(s, 0.0f);
  return (*this) *= (1.0f / s);
}

void Vector::Axpy(float alpha, const Vector& x) {
  DAAKG_CHECK_EQ(dim(), x.dim());
  simd::ActiveOps().axpy(alpha, x.data_.data(), data_.data(), data_.size());
}

void Vector::Hadamard(const Vector& other) {
  DAAKG_CHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

float Vector::Dot(const Vector& other) const {
  DAAKG_CHECK_EQ(dim(), other.dim());
  // Accumulate in double to keep the property tests tight.
  double acc = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    acc += static_cast<double>(data_[i]) * other.data_[i];
  }
  return static_cast<float>(acc);
}

float Vector::Norm() const { return std::sqrt(SquaredNorm()); }

float Vector::SquaredNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

void Vector::Normalize() {
  float n = Norm();
  if (n > 0.0f) (*this) /= n;
}

void Vector::InitUniform(Rng* rng, float scale) {
  for (auto& v : data_) {
    v = static_cast<float>(rng->NextDouble(-scale, scale));
  }
}

void Vector::InitGaussian(Rng* rng, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng->NextGaussian() * stddev);
  }
}

void Vector::InitXavier(Rng* rng) {
  if (data_.empty()) return;
  float scale = std::sqrt(6.0f / static_cast<float>(data_.size()));
  InitUniform(rng, scale);
}

Vector operator+(const Vector& a, const Vector& b) {
  Vector out = a;
  out += b;
  return out;
}

Vector operator-(const Vector& a, const Vector& b) {
  Vector out = a;
  out -= b;
  return out;
}

Vector operator*(const Vector& a, float s) {
  Vector out = a;
  out *= s;
  return out;
}

Vector operator*(float s, const Vector& a) { return a * s; }

float Dot(const Vector& a, const Vector& b) { return a.Dot(b); }

float Cosine(const Vector& a, const Vector& b) {
  float na = a.Norm();
  float nb = b.Norm();
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return a.Dot(b) / (na * nb);
}

float CosineWithGradients(const Vector& a, const Vector& b, Vector* da,
                          Vector* db) {
  *da = Vector(a.dim());
  *db = Vector(b.dim());
  const float na = a.Norm();
  const float nb = b.Norm();
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  const float sim = a.Dot(b) / (na * nb);
  for (size_t i = 0; i < a.dim(); ++i) {
    (*da)[i] = b[i] / (na * nb) - sim * a[i] / (na * na);
    (*db)[i] = a[i] / (na * nb) - sim * b[i] / (nb * nb);
  }
  return sim;
}

float EuclideanDistance(const Vector& a, const Vector& b) {
  return std::sqrt(SquaredDistance(a, b));
}

float SquaredDistance(const Vector& a, const Vector& b) {
  DAAKG_CHECK_EQ(a.dim(), b.dim());
  double acc = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(acc);
}

Vector Concat(const Vector& a, const Vector& b) {
  Vector out(a.dim() + b.dim());
  for (size_t i = 0; i < a.dim(); ++i) out[i] = a[i];
  for (size_t i = 0; i < b.dim(); ++i) out[a.dim() + i] = b[i];
  return out;
}

}  // namespace daakg
