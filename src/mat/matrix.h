#ifndef AWMOE_MAT_MATRIX_H_
#define AWMOE_MAT_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace awmoe {

/// Dense row-major float32 matrix. This is the only tensor type in the
/// library: every activation in the models is a [batch, dim] matrix, and
/// sequences are handled positionally (see
/// docs/reproduction.md#model-scale), so a 2-D type keeps the kernels and
/// the autodiff engine small and auditable.
///
/// Matrix is a value type: copy copies the buffer, move steals it.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialised rows x cols matrix.
  Matrix(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
    AWMOE_CHECK(rows >= 0 && cols >= 0)
        << "bad shape " << rows << "x" << cols;
    data_.assign(static_cast<size_t>(rows * cols), 0.0f);
  }

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// rows x cols matrix filled with `value`.
  static Matrix Full(int64_t rows, int64_t cols, float value);

  /// Builds from a flat row-major buffer; `values.size()` must equal
  /// rows * cols.
  static Matrix FromVector(int64_t rows, int64_t cols,
                           const std::vector<float>& values);

  /// 1 x n row vector from values.
  static Matrix RowVector(const std::vector<float>& values);

  /// n x 1 column vector from values.
  static Matrix ColVector(const std::vector<float>& values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  float* row(int64_t r) {
    AWMOE_DCHECK(r >= 0 && r < rows_) << "row " << r << " of " << rows_;
    return data_.data() + r * cols_;
  }
  const float* row(int64_t r) const {
    AWMOE_DCHECK(r >= 0 && r < rows_) << "row " << r << " of " << rows_;
    return data_.data() + r * cols_;
  }

  float& operator()(int64_t r, int64_t c) {
    AWMOE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "(" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float operator()(int64_t r, int64_t c) const {
    AWMOE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "(" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// True if shapes match.
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float value) { data_.assign(data_.size(), value); }

  /// Sets every element to zero (keeps shape).
  void SetZero() { Fill(0.0f); }

  /// "rows x cols" debug string.
  std::string ShapeString() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

}  // namespace awmoe

#endif  // AWMOE_MAT_MATRIX_H_
