#ifndef AWMOE_NN_EXEC_H_
#define AWMOE_NN_EXEC_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "autograd/ops.h"
#include "nn/embedding.h"
#include "nn/inference.h"

namespace awmoe {

// Executors: one forward body per module, two ways to run it.
//
// Every AW-MoE module (Linear, Mlp, the product-path AttentionUnit,
// ExpertBank, the EmbeddingSet tower inputs, InputNetwork, GateNetwork)
// writes its forward once, as a template over an executor X, and
// explicitly instantiates it for the two executors below:
//
//  - GraphExec builds autograd Var nodes (training, and the
//    InferenceLogits references the bitwise suites compare against).
//  - ArenaExec runs the graph-free kernels of nn/inference.h over views
//    bump-allocated from an InferenceArena (the Ranker::Score hot
//    path). Each op materialises one buffer per graph op, so at the
//    reference tier both executors produce the same floats.
//
// An op returns its result as X::Mat (a Var, or a MatView). Ops that
// produce a fresh matrix also take an X::Dst: where the arena executor
// writes the result (a caller's view, a column block of one, or a fresh
// x.Alloc); the graph executor ignores it. X::Scope marks the arena on
// construction and rewinds it on destruction; on the graph it does
// nothing. A new fused kernel goes into an ArenaExec op.
//
// THE BEHAVIOUR STACK: the per-item units (the item tower, the §III-C
// activation unit, the §III-F gate unit) run once over every behaviour
// position, as one position-major stack of L*B rows — row j*B + r is
// position j of example r. The blocked Gather/Constant build it,
// ProductPath repeats the per-example reference over its row blocks,
// and Pool folds it back to [B, c], adding positions in order. Every
// per-row kernel's arithmetic is independent of the row count and the
// row's position (mat/kernel_tier.h), so a stacked forward produces the
// floats of one [B]-row pass per position, bit for bit.

template <class X>
using MatOf = typename X::Mat;
template <class X>
using DstOf = typename X::Dst;

class GraphExec {
 public:
  using Mat = Var;
  struct Dst {};
  /// Operands of Concat.
  using Parts = std::vector<Var>;
  struct Scope {
    explicit Scope(const GraphExec&) {}
  };

  Dst Alloc(int64_t, int64_t) const { return {}; }
  Dst ColBlock(Dst, int64_t, int64_t) const { return {}; }
  static int64_t Rows(const Var& a) { return a.rows(); }
  static int64_t Cols(const Var& a) { return a.cols(); }

  /// in * w.
  Var MatMul(const Var& in, const Var& w, Dst) const {
    return ag::MatMul(in, w);
  }
  /// a + bias broadcast over rows.
  Var AddBias(const Var& a, const Var& bias) const {
    return ag::AddBias(a, bias);
  }
  Var Relu(const Var& a) const { return ag::Relu(a); }
  /// [a | b' | a*b'], the product-path input of Fig. 4a/4c, where b'
  /// repeats b over the row blocks of a (b.rows divides a.rows): one
  /// reference row per example, shared by every behaviour position.
  Var ProductPath(const Var& a, const Var& b, Dst) const;
  /// Masked pooling of a position-major stack (Eq. 3, Eq. 8): with
  /// `mask` the batch's [B, L] behaviour mask and rows [L*B, c],
  ///   out = sum_j rows_j * (w_j * mask_j)   (w = [L*B, 1])
  ///   out = sum_j rows_j * mask_j           (w null)
  /// summed in position order, as [B, c].
  Var Pool(const Var& rows, const Var* w, const ConstMatView& mask,
           Dst) const;
  Var SoftmaxRows(const Var& a) const { return ag::SoftmaxRows(a); }
  /// Keeps each row's k largest entries, zeroes the rest.
  Var TopK(const Var& a, int64_t k) const;
  /// Row j*count + i is table row ids[i * id_stride + j], i < count,
  /// j < blocks: `blocks` gathers stacked position-major.
  Var Gather(const EmbeddingTable& table, const int64_t* ids, int64_t count,
             int64_t id_stride, Dst, int64_t blocks = 1) const;
  /// A non-differentiated input. With blocks > 1 the `blocks` column
  /// blocks of `value` are stacked as row blocks.
  Var Constant(const ConstMatView& value, Dst, int64_t blocks = 1) const;
  /// Column concatenation of parts.
  Var Concat(const Parts& parts, Dst) const { return ag::ConcatCols(parts); }
};

class ArenaExec {
 public:
  using Mat = MatView;
  using Dst = MatView;
  /// Concat's operands already sit in column blocks of its Dst.
  struct Parts {
    Parts() = default;
    Parts(std::initializer_list<MatView>) {}
    void push_back(const MatView&) {}
  };
  class Scope {
   public:
    explicit Scope(const ArenaExec& x)
        : arena_(x.arena_), mark_(arena_->Mark()) {}
    ~Scope() { arena_->Rewind(mark_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    InferenceArena* arena_;
    size_t mark_;
  };

  explicit ArenaExec(InferenceArena* arena) : arena_(arena) {}

  MatView Alloc(int64_t rows, int64_t cols) const {
    return arena_->Alloc(rows, cols);
  }
  MatView ColBlock(MatView d, int64_t begin, int64_t width) const {
    return d.ColBlock(begin, width);
  }
  static int64_t Rows(const MatView& a) { return a.rows; }
  static int64_t Cols(const MatView& a) { return a.cols; }

  // Results land in `out`, or in place where the graph op is
  // elementwise on its first operand.
  MatView MatMul(const MatView& in, const Var& w, MatView out) const {
    MatMulInto(in, w.value(), out);
    return out;
  }
  MatView AddBias(const MatView& a, const Var& bias) const {
    AddBiasInPlace(a, bias.value());
    return a;
  }
  MatView Relu(const MatView& a) const {
    ReluInPlace(a);
    return a;
  }
  /// One ConcatInteractionInto per row block of `a`; b is never tiled.
  MatView ProductPath(const MatView& a, const MatView& b, MatView out) const;
  /// A loop over the positions' row-block views: [B]-row temporaries
  /// scoped to each position, position 0 written straight into `out`,
  /// later positions added in order.
  MatView Pool(const MatView& rows, const MatView* w,
               const ConstMatView& mask, MatView out) const;
  MatView SoftmaxRows(const MatView& a) const {
    SoftmaxRowsInPlace(a);
    return a;
  }
  MatView TopK(const MatView& a, int64_t k) const {
    TopKMulInPlace(a, k, arena_);
    return a;
  }
  MatView Gather(const EmbeddingTable& table, const int64_t* ids,
                 int64_t count, int64_t id_stride, MatView out,
                 int64_t blocks = 1) const {
    for (int64_t j = 0; j < blocks; ++j) {
      GatherRowsInto(table.table().value(), ids + j, count, id_stride,
                     out.RowBlock(j * count, count));
    }
    return out;
  }
  MatView Constant(const ConstMatView& value, MatView out,
                   int64_t blocks = 1) const {
    const int64_t width = value.cols / blocks;
    for (int64_t j = 0; j < blocks; ++j) {
      CopyInto(value.ColBlock(j * width, width),
               out.RowBlock(j * value.rows, value.rows));
    }
    return out;
  }
  MatView Concat(const Parts&, MatView out) const { return out; }

 private:
  InferenceArena* arena_;
};

}  // namespace awmoe

#endif  // AWMOE_NN_EXEC_H_
