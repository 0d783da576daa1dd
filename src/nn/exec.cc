#include "nn/exec.h"

#include "mat/kernels.h"

namespace awmoe {

namespace {

/// The `blocks` column blocks of `v` stacked as row blocks:
/// [rows, blocks*w] -> [blocks*rows, w].
Matrix StackColBlocks(const ConstMatView& v, int64_t blocks) {
  AWMOE_CHECK(blocks > 0 && v.cols % blocks == 0)
      << "StackColBlocks: " << v.cols << " cols in " << blocks << " blocks";
  const int64_t width = v.cols / blocks;
  Matrix m(blocks * v.rows, width);
  for (int64_t j = 0; j < blocks; ++j) {
    CopyInto(v.ColBlock(j * width, width),
             MatView{m.data() + j * v.rows * width, v.rows, width, width});
  }
  return m;
}

}  // namespace

Var GraphExec::ProductPath(const Var& a, const Var& b, Dst) const {
  AWMOE_CHECK(b.rows() == 0 ? a.rows() == 0 : a.rows() % b.rows() == 0)
      << "ProductPath: " << a.rows() << " rows over " << b.rows();
  Var tiled = b;
  if (a.rows() != b.rows()) {
    // Row i reads b's row i mod b.rows; the gather's backward scatters
    // every block's gradient back into b.
    std::vector<int64_t> rows(static_cast<size_t>(a.rows()));
    for (int64_t i = 0; i < a.rows(); ++i) {
      rows[static_cast<size_t>(i)] = i % b.rows();
    }
    tiled = ag::GatherRows(b, rows);
  }
  Var interaction = ag::Mul(a, tiled);
  return ag::ConcatCols({a, tiled, interaction});
}

Var GraphExec::Pool(const Var& rows, const Var* w, const ConstMatView& mask,
                    Dst) const {
  const Matrix stacked = StackColBlocks(mask, mask.cols);
  const Var weighed =
      w != nullptr
          ? ag::MulColBroadcast(rows, ag::MulMask(*w, stacked))
          : ag::MulMask(rows, BroadcastCol(stacked, rows.cols()));
  return ag::SumRowBlocks(weighed, mask.cols);
}

Var GraphExec::TopK(const Var& a, int64_t k) const {
  // Hard top-k selection; gradients flow only through the survivors.
  return ag::MulMask(a, TopKMaskRows(a.value(), k));
}

Var GraphExec::Gather(const EmbeddingTable& table, const int64_t* ids,
                      int64_t count, int64_t id_stride, Dst,
                      int64_t blocks) const {
  std::vector<int64_t> rows(static_cast<size_t>(blocks * count));
  for (int64_t j = 0; j < blocks; ++j) {
    for (int64_t i = 0; i < count; ++i) {
      rows[static_cast<size_t>(j * count + i)] = ids[i * id_stride + j];
    }
  }
  return table.Forward(rows);
}

Var GraphExec::Constant(const ConstMatView& value, Dst,
                        int64_t blocks) const {
  return Var(StackColBlocks(value, blocks));
}

MatView ArenaExec::ProductPath(const MatView& a, const MatView& b,
                               MatView out) const {
  AWMOE_CHECK(b.rows == 0 ? a.rows == 0 : a.rows % b.rows == 0)
      << "ProductPath: " << a.rows << " rows over " << b.rows;
  for (int64_t begin = 0; begin < a.rows; begin += b.rows) {
    ConcatInteractionInto(a.RowBlock(begin, b.rows), b,
                          out.RowBlock(begin, b.rows));
  }
  return out;
}

MatView ArenaExec::Pool(const MatView& rows, const MatView* w,
                        const ConstMatView& mask, MatView out) const {
  const int64_t b = mask.rows;
  AWMOE_CHECK(mask.cols > 0 && rows.rows == mask.cols * b)
      << "Pool: " << rows.rows << " rows for a " << b << "x" << mask.cols
      << " mask";
  for (int64_t j = 0; j < mask.cols; ++j) {
    const Scope scope(*this);
    const ConstMatView mask_j = mask.ColBlock(j, 1);
    const MatView rows_j = rows.RowBlock(j * b, b);
    const MatView contribution = j == 0 ? out : Alloc(b, rows.cols);
    if (w != nullptr) {
      const MatView masked = Alloc(b, 1);
      MulInto(w->RowBlock(j * b, b), mask_j, masked);
      MulColBroadcastInto(rows_j, masked, contribution);
    } else {
      MulColBroadcastInto(rows_j, mask_j, contribution);
    }
    if (j > 0) AddInPlace(out, contribution);
  }
  return out;
}

}  // namespace awmoe
