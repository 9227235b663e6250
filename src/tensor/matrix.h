#ifndef DAAKG_TENSOR_MATRIX_H_
#define DAAKG_TENSOR_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "tensor/vector.h"

namespace daakg {

// Dense row-major float matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float value = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* RowData(size_t r) { return data_.data() + r * cols_; }
  const float* RowData(size_t r) const { return data_.data() + r * cols_; }

  // Copies row r into a Vector.
  Vector Row(size_t r) const;
  // Overwrites row r with v (v.dim() must equal cols()).
  void SetRow(size_t r, const Vector& v);
  // Adds alpha * v into row r.
  void RowAxpy(size_t r, float alpha, const Vector& v);

  void Fill(float value);
  void SetZero() { Fill(0.0f); }
  // Sets the matrix to identity (must be square).
  void SetIdentity();

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float s);
  // this += alpha * other.
  void Axpy(float alpha, const Matrix& other);

  // y = this * x  (dims: rows x cols * cols -> rows).
  Vector Multiply(const Vector& x) const;
  // Multiply() into caller storage: x holds cols() floats, y rows() floats
  // (y must not alias x). y[r] is simd::Ops::dot(x, row r) bit for bit, on
  // every SIMD backend; rows go four at a time through dot4.
  void MultiplyInto(const float* x, float* y) const;
  // y = this^T * x (dims: cols x rows * rows -> cols).
  Vector TransposeMultiply(const Vector& x) const;
  // C = this * other.
  Matrix Multiply(const Matrix& other) const;

  // Adds alpha * a * b^T (outer product) to this; a.dim()==rows,
  // b.dim()==cols. The core update for mapping-matrix gradients.
  void AddOuter(float alpha, const Vector& a, const Vector& b);
  // AddOuter(alpha, a, b) followed by y = this^T * a on the updated matrix,
  // in one pass over the rows (row r is updated, then accumulated), with
  // the arithmetic of the two calls. a holds rows() floats, b and y cols()
  // floats; none may alias the matrix, and y may alias neither a nor b.
  void AddOuterThenTransposeMultiply(float alpha, const float* a,
                                     const float* b, float* y);

  // Frobenius norm.
  float Norm() const;

  void InitUniform(Rng* rng, float scale);
  void InitGaussian(Rng* rng, float stddev);
  // Xavier/Glorot uniform: U(+-sqrt(6/(rows+cols))).
  void InitXavier(Rng* rng);

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace daakg

#endif  // DAAKG_TENSOR_MATRIX_H_
