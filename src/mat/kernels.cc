#include "mat/kernels.h"

#include <algorithm>
#include <cmath>

namespace awmoe {

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const char* op) {
  AWMOE_CHECK(a.SameShape(b)) << op << ": shape mismatch " << a.ShapeString()
                              << " vs " << b.ShapeString();
}

void CheckSameShapeView(const ConstMatView& a, const ConstMatView& b,
                        const char* op) {
  AWMOE_CHECK(a.rows == b.rows && a.cols == b.cols)
      << op << ": shape mismatch " << a.rows << "x" << a.cols << " vs "
      << b.rows << "x" << b.cols;
}

/// A contiguous matrix as one [1, size] row, for the purely elementwise
/// wrappers: an [N,1] column then runs one flat loop, not N 1-wide rows.
ConstMatView FlatView(const Matrix& m) {
  return ConstMatView(m.data(), 1, m.size(), m.size());
}
MatView MutableFlatView(Matrix& m) {
  return MatView{m.data(), 1, m.size(), m.size()};
}

template <typename Fn>
Matrix ElementwiseUnary(const Matrix& a, Fn fn) {
  Matrix out(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) dst[i] = fn(src[i]);
  return out;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  AWMOE_CHECK(a.cols() == b.rows())
      << "MatMul: " << a.ShapeString() << " * " << b.ShapeString();
  Matrix c(a.rows(), b.cols());
  ActiveKernels().matmul_nn(MatrixView(a), MatrixView(b),
                            MutableMatrixView(c));
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  AWMOE_CHECK(a.rows() == b.rows())
      << "MatMulTransA: " << a.ShapeString() << "^T * " << b.ShapeString();
  Matrix c(a.cols(), b.cols());
  ActiveKernels().matmul_tn(MatrixView(a), MatrixView(b),
                            MutableMatrixView(c));
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  AWMOE_CHECK(a.cols() == b.cols())
      << "MatMulTransB: " << a.ShapeString() << " * " << b.ShapeString()
      << "^T";
  Matrix c(a.rows(), b.rows());
  ActiveKernels().matmul_nt(MatrixView(a), MatrixView(b),
                            MutableMatrixView(c));
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) out(c, r) = arow[c];
  }
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Add");
  Matrix out = a;
  AddInPlace(MutableFlatView(out), FlatView(b));
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Sub");
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.size(); ++i) po[i] = pa[i] - pb[i];
  return out;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Mul");
  Matrix out(a.rows(), a.cols());
  MulInto(FlatView(a), FlatView(b), MutableFlatView(out));
  return out;
}

void AddInPlace(Matrix* a, const Matrix& b) {
  CheckSameShape(*a, b, "AddInPlace");
  AddInPlace(MutableFlatView(*a), FlatView(b));
}

void ScaleInPlace(Matrix* a, float s) { ScaleInPlace(MutableFlatView(*a), s); }

Matrix AddScalar(const Matrix& a, float s) {
  return ElementwiseUnary(a, [s](float x) { return x + s; });
}

Matrix MulScalar(const Matrix& a, float s) {
  return ElementwiseUnary(a, [s](float x) { return x * s; });
}

Matrix Relu(const Matrix& a) {
  Matrix out = a;
  ReluInPlace(MutableFlatView(out));
  return out;
}

void ReluBackwardInPlace(Matrix* grad, const Matrix& input) {
  CheckSameShape(*grad, input, "ReluBackwardInPlace");
  float* pg = grad->data();
  const float* pi = input.data();
  const int64_t n = grad->size();
  for (int64_t i = 0; i < n; ++i) {
    // Unconditional load: a plain select the compiler vectorises.
    const float g = pg[i];
    pg[i] = pi[i] > 0.0f ? g : 0.0f;
  }
}

Matrix Sigmoid(const Matrix& a) {
  return ElementwiseUnary(a, StableSigmoid);
}

Matrix Tanh(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); });
}

Matrix Neg(const Matrix& a) {
  return ElementwiseUnary(a, [](float x) { return -x; });
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  AddBiasInPlace(MutableMatrixView(out), b);
  return out;
}

Matrix MulColBroadcast(const Matrix& a, const Matrix& w) {
  Matrix out(a.rows(), a.cols());
  MulColBroadcastInto(MatrixView(a), MatrixView(w), MutableMatrixView(out));
  return out;
}

Matrix BroadcastCol(const Matrix& col, int64_t cols) {
  AWMOE_CHECK(col.cols() == 1)
      << "BroadcastCol: expected column vector, got " << col.ShapeString();
  Matrix out(col.rows(), cols);
  for (int64_t r = 0; r < col.rows(); ++r) {
    float v = col(r, 0);
    float* orow = out.row(r);
    for (int64_t c = 0; c < cols; ++c) orow[c] = v;
  }
  return out;
}

Matrix ColSum(const Matrix& a) {
  Matrix out(1, a.cols());
  float* po = out.data();
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int64_t c = 0; c < a.cols(); ++c) po[c] += arow[c];
  }
  return out;
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) acc += arow[c];
    out(r, 0) = acc;
  }
  return out;
}

double SumAll(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += p[i];
  return acc;
}

double MeanAll(const Matrix& a) {
  AWMOE_CHECK(a.size() > 0);
  return SumAll(a) / static_cast<double>(a.size());
}

double Norm(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  }
  return std::sqrt(acc);
}

Matrix DotRows(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), 1);
  DotRowsInto(MatrixView(a), MatrixView(b), MutableMatrixView(out));
  return out;
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out = a;
  SoftmaxRowsInPlace(MutableMatrixView(out));
  return out;
}

Matrix MaskedSoftmaxRows(const Matrix& a, const Matrix& mask) {
  AWMOE_CHECK(a.cols() > 0);
  CheckSameShape(a, mask, "MaskedSoftmaxRows");
  Matrix out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* mrow = mask.row(r);
    float* orow = out.row(r);
    // Max over included columns; mirrors SoftmaxRows' first-then-max order.
    bool seen = false;
    float max_val = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (mrow[c] == 0.0f) continue;
      max_val = seen ? std::max(max_val, arow[c]) : arow[c];
      seen = true;
    }
    AWMOE_CHECK(seen) << "MaskedSoftmaxRows: row " << r << " masks out every "
                      << "column";
    float denom = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (mrow[c] == 0.0f) {
        orow[c] = 0.0f;
        continue;
      }
      orow[c] = std::exp(arow[c] - max_val);
      denom += orow[c];
    }
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (mrow[c] != 0.0f) orow[c] /= denom;
    }
  }
  return out;
}

Matrix LogSumExpRows(const Matrix& a) {
  AWMOE_CHECK(a.cols() > 0);
  Matrix out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float max_val = arow[0];
    for (int64_t c = 1; c < a.cols(); ++c) max_val = std::max(max_val, arow[c]);
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) acc += std::exp(arow[c] - max_val);
    out(r, 0) = max_val + std::log(acc);
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<int64_t>& indices) {
  const int64_t count = static_cast<int64_t>(indices.size());
  Matrix out(count, a.cols());
  GatherRowsInto(a, indices.data(), count, MutableMatrixView(out));
  return out;
}

void ScatterAddRows(Matrix* target, const std::vector<int64_t>& indices,
                    const Matrix& rows) {
  AWMOE_CHECK(static_cast<int64_t>(indices.size()) == rows.rows())
      << "ScatterAddRows: " << indices.size() << " indices vs "
      << rows.rows() << " rows";
  AWMOE_CHECK(target->cols() == rows.cols())
      << "ScatterAddRows: col mismatch " << target->ShapeString() << " vs "
      << rows.ShapeString();
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t idx = indices[i];
    AWMOE_CHECK(idx >= 0 && idx < target->rows())
        << "ScatterAddRows: index " << idx << " out of " << target->rows();
    float* dst = target->row(idx);
    const float* src = rows.row(static_cast<int64_t>(i));
    for (int64_t c = 0; c < rows.cols(); ++c) dst[c] += src[c];
  }
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  AWMOE_CHECK(!parts.empty()) << "ConcatCols: no parts";
  int64_t rows = parts[0]->rows();
  int64_t total_cols = 0;
  for (const Matrix* part : parts) {
    AWMOE_CHECK(part->rows() == rows)
        << "ConcatCols: row mismatch " << part->rows() << " vs " << rows;
    total_cols += part->cols();
  }
  Matrix out(rows, total_cols);
  const MatView view = MutableMatrixView(out);
  int64_t offset = 0;
  for (const Matrix* part : parts) {
    CopyInto(MatrixView(*part), view.ColBlock(offset, part->cols()));
    offset += part->cols();
  }
  return out;
}

Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end) {
  AWMOE_CHECK(0 <= begin && begin <= end && end <= a.cols())
      << "SliceCols: [" << begin << "," << end << ") of " << a.cols();
  Matrix out(a.rows(), end - begin);
  CopyInto(MatrixColsView(a, begin, end - begin), MutableMatrixView(out));
  return out;
}

Matrix TopKMaskRows(const Matrix& a, int64_t k) {
  Matrix out(a.rows(), a.cols());
  TopKMaskRowsInto(MatrixView(a), k, MutableMatrixView(out));
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, float tol) {
  if (!a.SameShape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// View kernels.
// ---------------------------------------------------------------------------

void CopyInto(const ConstMatView& src, MatView out) {
  CheckSameShapeView(src, out, "CopyInto");
  for (int64_t r = 0; r < src.rows; ++r) {
    const float* s = src.row(r);
    std::copy(s, s + src.cols, out.row(r));
  }
}

void AddBiasInPlace(MatView a, const Matrix& bias) {
  AWMOE_CHECK(bias.rows() == 1 && bias.cols() == a.cols)
      << "AddBiasInPlace: " << a.rows << "x" << a.cols << " + "
      << bias.ShapeString();
  ActiveKernels().add_bias(a, bias);
}

void ReluInPlace(MatView a) { ActiveKernels().relu(a); }

void MulInto(const ConstMatView& a, const ConstMatView& b, MatView out) {
  CheckSameShapeView(a, b, "MulInto");
  CheckSameShapeView(a, out, "MulInto(out)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* pa = a.row(r);
    const float* pb = b.row(r);
    float* po = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) po[c] = pa[c] * pb[c];
  }
}

void ConcatInteractionInto(const ConstMatView& a, const ConstMatView& b,
                           MatView out) {
  CheckSameShapeView(a, b, "ConcatInteractionInto");
  AWMOE_CHECK(out.rows == a.rows && out.cols == 3 * a.cols)
      << "ConcatInteractionInto: out " << out.rows << "x" << out.cols;
  const int64_t d = a.cols;
  CopyInto(a, out.ColBlock(0, d));
  CopyInto(b, out.ColBlock(d, d));
  MulInto(a, b, out.ColBlock(2 * d, d));
}

void AddInPlace(MatView a, const ConstMatView& b) {
  CheckSameShapeView(a, b, "AddInPlace");
  for (int64_t r = 0; r < a.rows; ++r) {
    float* pa = a.row(r);
    const float* pb = b.row(r);
    for (int64_t c = 0; c < a.cols; ++c) pa[c] = pa[c] + pb[c];
  }
}

void MulColBroadcastInto(const ConstMatView& a, const ConstMatView& w,
                         MatView out) {
  AWMOE_CHECK(w.cols == 1 && w.rows == a.rows)
      << "MulColBroadcastInto: " << a.rows << "x" << a.cols << " * " << w.rows
      << "x" << w.cols;
  CheckSameShapeView(a, out, "MulColBroadcastInto(out)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float wr = *w.row(r);
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (int64_t c = 0; c < a.cols; ++c) orow[c] = arow[c] * wr;
  }
}

void DotRowsInto(const ConstMatView& a, const ConstMatView& b, MatView out) {
  CheckSameShapeView(a, b, "DotRowsInto");
  AWMOE_CHECK(out.rows == a.rows && out.cols == 1)
      << "DotRowsInto: out " << out.rows << "x" << out.cols;
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < a.cols; ++c) acc += arow[c] * brow[c];
    *out.row(r) = acc;
  }
}

void SoftmaxRowsInPlace(MatView a) {
  AWMOE_CHECK(a.cols > 0) << "SoftmaxRowsInPlace on empty rows";
  for (int64_t r = 0; r < a.rows; ++r) {
    float* arow = a.row(r);
    float max_val = arow[0];
    for (int64_t c = 1; c < a.cols; ++c) max_val = std::max(max_val, arow[c]);
    float denom = 0.0f;
    for (int64_t c = 0; c < a.cols; ++c) {
      arow[c] = std::exp(arow[c] - max_val);
      denom += arow[c];
    }
    for (int64_t c = 0; c < a.cols; ++c) arow[c] /= denom;
  }
}

void ScaleInPlace(MatView a, float s) {
  for (int64_t r = 0; r < a.rows; ++r) {
    float* arow = a.row(r);
    for (int64_t c = 0; c < a.cols; ++c) arow[c] = arow[c] * s;
  }
}

void TopKMaskRowsInto(const ConstMatView& a, int64_t k, MatView mask) {
  AWMOE_CHECK(k >= 1 && k <= a.cols)
      << "TopKMaskRowsInto: k=" << k << " cols=" << a.cols;
  CheckSameShapeView(a, mask, "TopKMaskRowsInto(mask)");
  for (int64_t r = 0; r < a.rows; ++r) {
    const float* arow = a.row(r);
    float* mrow = mask.row(r);
    for (int64_t c = 0; c < a.cols; ++c) {
      int64_t ahead = 0;
      for (int64_t o = 0; o < a.cols; ++o) {
        if (arow[o] > arow[c] || (arow[o] == arow[c] && o < c)) ++ahead;
      }
      mrow[c] = ahead < k ? 1.0f : 0.0f;
    }
  }
}

void GatherRowsInto(const Matrix& table, const int64_t* ids, int64_t count,
                    MatView out) {
  AWMOE_CHECK(out.rows == count && out.cols == table.cols())
      << "GatherRowsInto: out " << out.rows << "x" << out.cols << " for "
      << count << " rows of " << table.ShapeString();
  for (int64_t i = 0; i < count; ++i) {
    const int64_t idx = ids[i];
    AWMOE_CHECK(idx >= 0 && idx < table.rows())
        << "GatherRowsInto: index " << idx << " out of " << table.rows();
    const float* src = table.row(idx);
    std::copy(src, src + table.cols(), out.row(i));
  }
}

}  // namespace awmoe
