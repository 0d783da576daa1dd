#include "nn/exec.h"

#include <algorithm>

#include "mat/kernels.h"

namespace awmoe {

namespace {

/// Writes the rows of a [B, L] behaviour mask with mask > 0 into `out`
/// (room for B*L), position-major, and returns how many there are.
int64_t ListStackRows(const ConstMatView& mask, std::span<StackRow> out) {
  const int64_t b = mask.rows;
  const int64_t l = mask.cols;
  AWMOE_CHECK(static_cast<int64_t>(out.size()) >= b * l)
      << "ListStackRows: room for " << out.size() << " of " << b << "x"
      << l;
  int64_t n = 0;
  for (int64_t j = 0; j < l; ++j) {
    for (int64_t r = 0; r < b; ++r) {
      const float* m = mask.row(r);
      if (!(m[j] > 0.0f)) continue;
      // Sequences are real-first, so this scan almost always stops at
      // p = 0.
      bool first = true;
      for (int64_t p = 0; p < j && first; ++p) first = !(m[p] > 0.0f);
      out[static_cast<size_t>(n++)] = {static_cast<int32_t>(j),
                                       static_cast<int32_t>(r), first};
    }
  }
  return n;
}

/// Width of one position's column block of a [B, L*w] value.
int64_t BlockWidth(const ConstMatView& value, const StackRows& rows) {
  AWMOE_CHECK(rows.seq_len > 0 && value.cols % rows.seq_len == 0 &&
              value.rows == rows.batch)
      << "stack constant: " << value.rows << "x" << value.cols << " for "
      << rows.batch << "x" << rows.seq_len;
  return value.cols / rows.seq_len;
}

/// Calls fn(i, n) for every maximal run [i, i + n) of listed rows that
/// share a position and whose examples are consecutive, so a run reads
/// a row block of any per-example operand.
template <class Fn>
void ForEachRun(const StackRows& rows, Fn fn) {
  const int64_t n = rows.size();
  for (int64_t i = 0; i < n;) {
    int64_t end = i + 1;
    while (end < n && rows.rows[end].position == rows.rows[i].position &&
           rows.rows[end].example == rows.rows[end - 1].example + 1) {
      ++end;
    }
    fn(i, end - i);
    i = end;
  }
}

/// Listed row i of `out` = column block `position` of value's row
/// `example`.
void StackConstantInto(const ConstMatView& value, const StackRows& rows,
                       MatView out) {
  const int64_t width = BlockWidth(value, rows);
  AWMOE_CHECK(out.rows == rows.size() && out.cols == width)
      << "stack constant: out " << out.rows << "x" << out.cols;
  ForEachRun(rows, [&](int64_t i, int64_t n) {
    const StackRow& s = rows.rows[i];
    CopyInto(value.RowBlock(s.example, n).ColBlock(s.position * width, width),
             out.RowBlock(i, n));
  });
}

std::vector<int64_t> Examples(const StackRows& rows) {
  std::vector<int64_t> examples(rows.rows.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    examples[i] = rows.rows[i].example;
  }
  return examples;
}

}  // namespace

GraphExec::RowList GraphExec::BehaviorRows(const ConstMatView& mask) const {
  std::vector<StackRow> rows(static_cast<size_t>(mask.rows * mask.cols));
  rows.resize(static_cast<size_t>(ListStackRows(mask, rows)));
  return RowList(std::move(rows), mask.rows, mask.cols);
}

Matrix GraphExec::ToMatrix(const ConstMatView& value) {
  Matrix m(value.rows, value.cols);
  CopyInto(value, MutableMatrixView(m));
  return m;
}

Var GraphExec::ProductPath(const Var& a, const Var& b, Dst) const {
  AWMOE_CHECK(a.rows() == b.rows())
      << "ProductPath: " << a.rows() << " rows vs " << b.rows();
  return ag::ConcatCols({a, b, ag::Mul(a, b)});
}

Var GraphExec::ProductPath(const Var& a, const Var& b, const StackRows& rows,
                           Dst) const {
  AWMOE_CHECK(a.rows() == rows.size() && b.rows() == rows.batch)
      << "ProductPath: " << a.rows() << " rows over " << b.rows()
      << " for a " << rows.size() << "-row stack of " << rows.batch;
  // Row i reads b's row rows[i].example; the gather's backward scatters
  // every row's gradient back into its example's reference.
  const Var paired = ag::GatherRows(b, Examples(rows));
  return ag::ConcatCols({a, paired, ag::Mul(a, paired)});
}

Var GraphExec::Pool(const Var& stack, const Var* w, const StackRows& rows,
                    Dst) const {
  const Var terms = w != nullptr ? ag::MulColBroadcast(stack, *w) : stack;
  return ag::ScatterSumRows(terms, Examples(rows), rows.batch);
}

Var GraphExec::TopK(const Var& a, int64_t k) const {
  // Hard top-k selection; gradients flow only through the survivors.
  return ag::MulMask(a, TopKMaskRows(a.value(), k));
}

Var GraphExec::Gather(const EmbeddingTable& table, const int64_t* ids,
                      int64_t count, Dst) const {
  return table.Forward(std::vector<int64_t>(ids, ids + count));
}

Var GraphExec::Gather(const EmbeddingTable& table, const int64_t* ids,
                      const StackRows& rows, Dst) const {
  std::vector<int64_t> picked(rows.rows.size());
  for (size_t i = 0; i < picked.size(); ++i) {
    const StackRow& s = rows.rows[i];
    picked[i] = ids[s.example * rows.seq_len + s.position];
  }
  return table.Forward(picked);
}

Var GraphExec::Constant(const ConstMatView& value, const StackRows& rows,
                        Dst) const {
  Matrix m(rows.size(), BlockWidth(value, rows));
  StackConstantInto(value, rows, MutableMatrixView(m));
  return Var(std::move(m));
}

ArenaExec::RowList ArenaExec::BehaviorRows(const ConstMatView& mask) const {
  const std::span<StackRow> rows =
      arena_->AllocStackRows(mask.rows * mask.cols);
  return {rows.first(static_cast<size_t>(ListStackRows(mask, rows))),
          mask.rows, mask.cols};
}

MatView ArenaExec::ProductPath(const MatView& a, const MatView& b,
                               const StackRows& rows, MatView out) const {
  AWMOE_CHECK(a.rows == rows.size() && b.rows == rows.batch)
      << "ProductPath: " << a.rows << " rows over " << b.rows << " for a "
      << rows.size() << "-row stack of " << rows.batch;
  ForEachRun(rows, [&](int64_t i, int64_t n) {
    ConcatInteractionInto(a.RowBlock(i, n),
                          b.RowBlock(rows.rows[i].example, n),
                          out.RowBlock(i, n));
  });
  return out;
}

MatView ArenaExec::Pool(const MatView& stack, const MatView* w,
                        const StackRows& rows, MatView out) const {
  AWMOE_CHECK(stack.rows == rows.size() && out.rows == rows.batch &&
              out.cols == stack.cols)
      << "Pool: " << stack.rows << "x" << stack.cols << " stack of "
      << rows.size() << " rows into " << out.rows << "x" << out.cols;
  const Scope scope(*this);
  const MatView term = w != nullptr ? Alloc(1, stack.cols) : MatView{};
  for (int64_t r = 0; r < out.rows; ++r) {
    std::fill_n(out.row(r), out.cols, 0.0f);
  }
  for (int64_t i = 0; i < rows.size(); ++i) {
    const StackRow& s = rows.rows[i];
    const MatView dst = out.RowBlock(s.example, 1);
    const ConstMatView row = stack.RowBlock(i, 1);
    if (w == nullptr) {
      if (s.first) {
        CopyInto(row, dst);
      } else {
        AddInPlace(dst, row);
      }
    } else if (s.first) {
      MulColBroadcastInto(row, w->RowBlock(i, 1), dst);
    } else {
      MulColBroadcastInto(row, w->RowBlock(i, 1), term);
      AddInPlace(dst, term);
    }
  }
  return out;
}

MatView ArenaExec::Gather(const EmbeddingTable& table, const int64_t* ids,
                          const StackRows& rows, MatView out) const {
  AWMOE_CHECK(out.rows == rows.size())
      << "Gather: out " << out.rows << " rows for " << rows.size();
  for (int64_t i = 0; i < rows.size(); ++i) {
    const StackRow& s = rows.rows[i];
    GatherRowsInto(table.table().value(),
                   ids + s.example * rows.seq_len + s.position, 1,
                   out.RowBlock(i, 1));
  }
  return out;
}

MatView ArenaExec::Constant(const ConstMatView& value, const StackRows& rows,
                            MatView out) const {
  StackConstantInto(value, rows, out);
  return out;
}

}  // namespace awmoe
