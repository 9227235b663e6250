#include "tensor/vector.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd/simd.h"

namespace daakg {

// Elementwise mutators route through the dispatched axpy/scale kernels and
// every reduction (Dot, the norms, the cosine) through simd::Ops::dot; all
// are bit-identical on every backend (rounding contract in simd/simd.h), so
// trainers take the same trajectory whether or not AVX2 is available.

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
  return simd::ActiveOps().dot(data_.data(), other.data_.data(),
                               data_.size());
}

float Vector::Norm() const { return daakg::Norm(data_.data(), data_.size()); }

float Vector::SquaredNorm() const { return Dot(*this); }

void Vector::Normalize() { daakg::Normalize(data_.data(), data_.size()); }

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

float Norm(const float* x, size_t n) {
  return std::sqrt(simd::ActiveOps().dot(x, x, n));
}

float CosineFromDot(float dot, float norm_a, float norm_b) {
  // std::clamp passes NaN through (the NaN test of VectorTest pins it).
  return std::clamp(dot / ((norm_a + kCosineEps) * (norm_b + kCosineEps)),
                    -1.0f, 1.0f);
}

void Normalize(float* x, size_t n) {
  simd::ActiveOps().scale(x, n, 1.0f / (Norm(x, n) + kCosineEps));
}

float Cosine(const Vector& a, const Vector& b, Vector* da, Vector* db) {
  DAAKG_CHECK_EQ(a.dim(), b.dim());
  const float na = a.Norm();
  const float nb = b.Norm();
  const float sim = CosineFromDot(a.Dot(b), na, nb);
  if (da == nullptr && db == nullptr) return sim;
  if (da != nullptr) da->Resize(a.dim());
  if (db != nullptr) db->Resize(b.dim());
  if (na == 0.0f || nb == 0.0f) {
    if (da != nullptr) da->SetZero();
    if (db != nullptr) db->SetZero();
    return sim;
  }
  // d sim / d a = b / (n(a) n(b)) - sim a / n(a)^2, and alike for b.
  const float nu = na + kCosineEps;
  const float nv = nb + kCosineEps;
  const float inv = 1.0f / (nu * nv);
  const float ku = sim / (nu * nu);
  const float kv = sim / (nv * nv);
  if (da != nullptr) {
    for (size_t i = 0; i < a.dim(); ++i) (*da)[i] = b[i] * inv - a[i] * ku;
  }
  if (db != nullptr) {
    for (size_t i = 0; i < b.dim(); ++i) (*db)[i] = a[i] * inv - b[i] * kv;
  }
  return sim;
}

float EuclideanDistance(const Vector& a, const Vector& b) {
  return (a - b).Norm();
}

Vector Concat(const Vector& a, const Vector& b) {
  Vector out(a.dim() + b.dim());
  for (size_t i = 0; i < a.dim(); ++i) out[i] = a[i];
  for (size_t i = 0; i < b.dim(); ++i) out[a.dim() + i] = b[i];
  return out;
}

}  // namespace daakg
