#ifndef AWMOE_NN_EXEC_H_
#define AWMOE_NN_EXEC_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
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
// explicitly instantiates it for the two executors below, and so does
// every pointwise ranker (AwMoeRanker, FfnRanker, CategoryMoeRanker):
//
//  - GraphExec builds autograd Var nodes (training, and under a
//    NoGradGuard the ForwardLogits references the bitwise suites
//    compare Score against).
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
// nothing. A read-only operand supplied from outside the body (a
// precomputed gate) enters as x.Input, of type X::In: a Constant on the
// graph, read where it lies on the arena. A new fused kernel goes into
// an ArenaExec op.
//
// THE BEHAVIOUR STACK: the per-item units (the item tower, the §III-C
// activation unit, the §III-F gate unit) run once over the real
// behaviour positions of a batch, as one stack of rows. A StackRows
// list, built from behavior_mask > 0, names them: the (position j,
// example r) pairs in position-major order, ascending r within each j.
// Padded positions get no row, so a long-tail user costs only the
// behaviours it has. The listed Gather/Constant build the stack,
// ProductPath pairs each row with its own example's reference row, and
// Pool adds each row into its example's [B, c] output row in position
// order (the first copied; an example with no row pools to +0). Every
// per-row kernel's arithmetic is independent of the row count and the
// row's position (mat/kernel_tier.h), and a padded row could only add
// +-0 terms to sums that start from +0, so the stack produces the floats
// of the fully padded one at every real row, bit for bit.

/// A behaviour stack's row list: a view of its StackRows (arena or
/// graph-owned storage) and the [batch, seq_len] layout they index.
struct StackRows {
  std::span<const StackRow> rows;
  int64_t batch = 0;    // Examples B.
  int64_t seq_len = 0;  // Positions L.

  int64_t size() const { return static_cast<int64_t>(rows.size()); }
};

template <class X>
using MatOf = typename X::Mat;
template <class X>
using DstOf = typename X::Dst;
template <class X>
using InOf = typename X::In;

class GraphExec {
 public:
  using Mat = Var;
  struct Dst {};
  using In = Var;
  /// Operands of Concat.
  using Parts = std::vector<Var>;
  struct Scope {
    explicit Scope(const GraphExec&) {}
  };
  /// A row list with its storage; reads as its StackRows.
  class RowList {
   public:
    RowList(std::vector<StackRow> rows, int64_t batch, int64_t seq_len)
        : rows_(std::move(rows)), batch_(batch), seq_len_(seq_len) {}
    RowList(const RowList&) = delete;
    RowList& operator=(const RowList&) = delete;
    operator StackRows() const {  // NOLINT(google-explicit-constructor)
      return {rows_, batch_, seq_len_};
    }

   private:
    std::vector<StackRow> rows_;
    int64_t batch_;
    int64_t seq_len_;
  };

  Dst Alloc(int64_t, int64_t) const { return {}; }
  Dst ColBlock(Dst, int64_t, int64_t) const { return {}; }
  static int64_t Rows(const Var& a) { return a.rows(); }
  static int64_t Cols(const Var& a) { return a.cols(); }

  /// The real rows (mask > 0) of a [B, L] behaviour mask,
  /// position-major, ascending example within a position.
  RowList BehaviorRows(const ConstMatView& mask) const;

  /// in * w.
  Var MatMul(const Var& in, const Var& w, Dst) const {
    return ag::MatMul(in, w);
  }
  /// a + bias broadcast over rows.
  Var AddBias(const Var& a, const Var& bias) const {
    return ag::AddBias(a, bias);
  }
  Var Relu(const Var& a) const { return ag::Relu(a); }
  /// [a | b | a*b], the product-path input of Fig. 4a/4c, for
  /// row-aligned a and b.
  Var ProductPath(const Var& a, const Var& b, Dst) const;
  /// The same over a behaviour stack a: listed row i is paired with
  /// b's row rows[i].example, one reference row per example.
  Var ProductPath(const Var& a, const Var& b, const StackRows& rows,
                  Dst) const;
  /// Pooling of a behaviour stack (Eq. 3, Eq. 8) into [B, c]:
  ///   out_r = sum over r's listed rows i of stack_i * w_i   (w [n, 1])
  ///   out_r = sum over r's listed rows i of stack_i         (w null)
  /// added in position order, the first copied.
  Var Pool(const Var& stack, const Var* w, const StackRows& rows,
           Dst) const;
  Var SoftmaxRows(const Var& a) const { return ag::SoftmaxRows(a); }
  /// Row-wise dot products [B, 1] of row-aligned a and b.
  Var DotRows(const Var& a, const Var& b, Dst) const {
    return ag::DotRows(a, b);
  }
  /// Keeps each row's k largest entries, zeroes the rest.
  Var TopK(const Var& a, int64_t k) const;
  /// Row i is table row ids[i], i < count.
  Var Gather(const EmbeddingTable& table, const int64_t* ids, int64_t count,
             Dst) const;
  /// Listed row i is table row ids[example * seq_len + position]: the
  /// stack gathered straight out of a Batch's row-major id layout.
  Var Gather(const EmbeddingTable& table, const int64_t* ids,
             const StackRows& rows, Dst) const;
  /// A non-differentiated input.
  Var Constant(const ConstMatView& value, Dst) const {
    return Var(ToMatrix(value));
  }
  /// A read-only operand supplied from outside the body.
  Var Input(const ConstMatView& value) const { return Constant(value, {}); }
  /// Listed row i is column block `position` (value.cols / seq_len
  /// wide) of value's row `example`.
  Var Constant(const ConstMatView& value, const StackRows& rows, Dst) const;
  /// Column concatenation of parts.
  Var Concat(const Parts& parts, Dst) const { return ag::ConcatCols(parts); }

 private:
  static Matrix ToMatrix(const ConstMatView& value);
};

class ArenaExec {
 public:
  using Mat = MatView;
  using Dst = MatView;
  using In = ConstMatView;
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
    InferenceArena::Marker mark_;
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

  /// Row lists live in the arena, scoped like its views.
  using RowList = StackRows;
  RowList BehaviorRows(const ConstMatView& mask) const;
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
  MatView ProductPath(const MatView& a, const MatView& b,
                      MatView out) const {
    ConcatInteractionInto(a, b, out);
    return out;
  }
  /// One ConcatInteractionInto per run of listed rows whose examples
  /// are consecutive; b is never tiled.
  MatView ProductPath(const MatView& a, const MatView& b,
                      const StackRows& rows, MatView out) const;
  /// Zero-fills `out`, then per listed row copies (first) or adds its
  /// term into its example's row; the weighted term goes through one
  /// scoped [1, c] temporary.
  MatView Pool(const MatView& stack, const MatView* w, const StackRows& rows,
               MatView out) const;
  MatView SoftmaxRows(const MatView& a) const {
    SoftmaxRowsInPlace(a);
    return a;
  }
  MatView DotRows(const ConstMatView& a, const ConstMatView& b,
                  MatView out) const {
    DotRowsInto(a, b, out);
    return out;
  }
  MatView TopK(const MatView& a, int64_t k) const {
    TopKMulInPlace(a, k, arena_);
    return a;
  }
  MatView Gather(const EmbeddingTable& table, const int64_t* ids,
                 int64_t count, MatView out) const {
    GatherRowsInto(table.table().value(), ids, count, out);
    return out;
  }
  MatView Gather(const EmbeddingTable& table, const int64_t* ids,
                 const StackRows& rows, MatView out) const;
  MatView Constant(const ConstMatView& value, MatView out) const {
    CopyInto(value, out);
    return out;
  }
  MatView Constant(const ConstMatView& value, const StackRows& rows,
                   MatView out) const;
  /// Read where it lies: no copy into the arena.
  ConstMatView Input(const ConstMatView& value) const { return value; }
  MatView Concat(const Parts&, MatView out) const { return out; }

 private:
  InferenceArena* arena_;
};

}  // namespace awmoe

#endif  // AWMOE_NN_EXEC_H_
