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

  // simd::Ops::dot of the two vectors.
  float Dot(const Vector& other) const;

  // Euclidean norm (daakg::Norm) and its square dot(x, x).
  float Norm() const;
  float SquaredNorm() const;

  // daakg::Normalize() of the vector: unit norm; a zero vector stays zero.
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

// The one cosine similarity of the library (DESIGN.md §6). With the norm
// |x| = sqrt(dot(x, x)) and n(x) = |x| + kCosineEps,
//
//   cos(a, b) = clamp(dot(a, b) / (n(a) n(b)), -1, 1),
//
// every dot product taken by simd::Ops::dot, so the value is bit-identical
// on every backend. The clamp lets NaN through: a diverged input scores NaN,
// never a bounded value.
inline constexpr float kCosineEps = 1e-12f;

// |x| of the n floats at x.
float Norm(const float* x, size_t n);

// The cosine of two vectors whose dot product and norms (Norm()) are known.
float CosineFromDot(float dot, float norm_a, float norm_b);

// Scales the n floats at x by 1 / n(x): the dot product of two rows so
// scaled is their cosine, up to the clamp. A zero row stays zero.
void Normalize(float* x, size_t n);

// cos(a, b). A non-null `da` / `db` (sized to the input, or resized) takes
// the gradient with respect to a / b; a zero input gives zero gradients.
float Cosine(const Vector& a, const Vector& b, Vector* da = nullptr,
             Vector* db = nullptr);

// Euclidean distance |a - b|.
float EuclideanDistance(const Vector& a, const Vector& b);

// Concatenates a and b.
Vector Concat(const Vector& a, const Vector& b);

}  // namespace daakg

#endif  // DAAKG_TENSOR_VECTOR_H_
