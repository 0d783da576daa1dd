#include "nn/exec.h"

#include "mat/kernels.h"

namespace awmoe {

namespace {

Matrix ToMatrix(const ConstMatView& v) {
  Matrix m(v.rows, v.cols);
  CopyInto(v, MutableMatrixView(m));
  return m;
}

}  // namespace

Var GraphExec::ProductPath(const Var& a, const Var& b, Dst) const {
  Var interaction = ag::Mul(a, b);
  return ag::ConcatCols({a, b, interaction});
}

Var GraphExec::MulMask(const Var& w, const ConstMatView& mask) const {
  return ag::MulMask(w, ToMatrix(mask));
}

Var GraphExec::MaskRows(const Var& a, const ConstMatView& mask, Dst) const {
  return ag::MulMask(a, BroadcastCol(ToMatrix(mask), a.cols()));
}

Var GraphExec::TopK(const Var& a, int64_t k) const {
  // Hard top-k selection; gradients flow only through the survivors.
  return ag::MulMask(a, TopKMaskRows(a.value(), k));
}

Var GraphExec::Gather(const EmbeddingTable& table, const int64_t* ids,
                      int64_t count, int64_t id_stride, Dst) const {
  std::vector<int64_t> rows(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    rows[static_cast<size_t>(i)] = ids[i * id_stride];
  }
  return table.Forward(rows);
}

Var GraphExec::Constant(const ConstMatView& value, Dst) const {
  return Var(ToMatrix(value));
}

}  // namespace awmoe
