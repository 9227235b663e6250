#ifndef DAAKG_TENSOR_VECTOR_H_
#define DAAKG_TENSOR_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace daakg {

// Dense float vector with the arithmetic the embedding stack needs.
// Value semantics; copy is an explicit deep copy like std::vector.
class Vector {
 public:
  Vector() = default;
  explicit Vector(size_t dim, float value = 0.0f) : data_(dim, value) {}
  Vector(std::initializer_list<float> values) : data_(values) {}
  explicit Vector(std::vector<float> values) : data_(std::move(values)) {}

  Vector(const Vector&) = default;
  Vector& operator=(const Vector&) = default;
  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;

  size_t dim() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  const std::vector<float>& values() const { return data_; }

  void Resize(size_t dim, float value = 0.0f) { data_.resize(dim, value); }
  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  // In-place arithmetic. Dimensions must match.
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(float s);
  Vector& operator/=(float s);

  // this += alpha * x.
  void Axpy(float alpha, const Vector& x);

  // Elementwise product: this[i] *= other[i].
  void Hadamard(const Vector& other);

  float Dot(const Vector& other) const;

  // Euclidean norm and its square.
  float Norm() const;
  float SquaredNorm() const;

  // Scales to unit Euclidean norm; leaves a zero vector untouched.
  void Normalize();

  // Fills with U(-scale, scale).
  void InitUniform(Rng* rng, float scale);
  // Fills with N(0, stddev^2).
  void InitGaussian(Rng* rng, float stddev);
  // Xavier/Glorot uniform for a dim-sized embedding: U(+-sqrt(6/dim)).
  void InitXavier(Rng* rng);

  bool operator==(const Vector& other) const { return data_ == other.data_; }

 private:
  std::vector<float> data_;
};

// Out-of-place arithmetic.
Vector operator+(const Vector& a, const Vector& b);
Vector operator-(const Vector& a, const Vector& b);
Vector operator*(const Vector& a, float s);
Vector operator*(float s, const Vector& a);

float Dot(const Vector& a, const Vector& b);

// Cosine similarity in [-1, 1]; returns 0 if either vector is zero.
float Cosine(const Vector& a, const Vector& b);

// Cosine similarity plus its gradients with respect to both inputs
// (d sim / d a into *da, d sim / d b into *db). Zero vectors yield zero
// similarity and zero gradients.
float CosineWithGradients(const Vector& a, const Vector& b, Vector* da,
                          Vector* db);

// Euclidean distance ||a - b||.
float EuclideanDistance(const Vector& a, const Vector& b);
float SquaredDistance(const Vector& a, const Vector& b);

// Concatenates a and b.
Vector Concat(const Vector& a, const Vector& b);

}  // namespace daakg

#endif  // DAAKG_TENSOR_VECTOR_H_
