#include "mat/matrix.h"

#include <sstream>

namespace awmoe {

Matrix Matrix::Full(int64_t rows, int64_t cols, float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::FromVector(int64_t rows, int64_t cols,
                          const std::vector<float>& values) {
  AWMOE_CHECK(static_cast<int64_t>(values.size()) == rows * cols)
      << "FromVector: " << values.size() << " values for shape " << rows
      << "x" << cols;
  Matrix m(rows, cols);
  m.data_ = values;
  return m;
}

Matrix Matrix::RowVector(const std::vector<float>& values) {
  return FromVector(1, static_cast<int64_t>(values.size()), values);
}

Matrix Matrix::ColVector(const std::vector<float>& values) {
  return FromVector(static_cast<int64_t>(values.size()), 1, values);
}

std::string Matrix::ShapeString() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

}  // namespace awmoe
