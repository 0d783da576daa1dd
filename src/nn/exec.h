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
//    It emits exactly the ag:: op sequence the modules always built, so
//    training is unchanged bit for bit.
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
  /// [a | b | a*b], the product-path input of Fig. 4a/4c.
  Var ProductPath(const Var& a, const Var& b, Dst) const;
  /// w [B,1] times a constant mask column [B,1].
  Var MulMask(const Var& w, const ConstMatView& mask) const;
  /// Row r of a scaled by w(r, 0).
  Var WeighRows(const Var& a, const Var& w, Dst) const {
    return ag::MulColBroadcast(a, w);
  }
  /// Row r of a times the constant mask(r, 0).
  Var MaskRows(const Var& a, const ConstMatView& mask, Dst) const;
  /// acc + c.
  Var Add(const Var& acc, const Var& c) const { return ag::Add(acc, c); }
  Var SoftmaxRows(const Var& a) const { return ag::SoftmaxRows(a); }
  /// Keeps each row's k largest entries, zeroes the rest.
  Var TopK(const Var& a, int64_t k) const;
  /// Rows ids[i * id_stride] of the table, i < count.
  Var Gather(const EmbeddingTable& table, const int64_t* ids, int64_t count,
             int64_t id_stride, Dst) const;
  /// A non-differentiated input.
  Var Constant(const ConstMatView& value, Dst) const;
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
  MatView ProductPath(const MatView& a, const MatView& b, MatView out) const {
    ConcatInteractionInto(a, b, out);
    return out;
  }
  MatView MulMask(const MatView& w, const ConstMatView& mask) const {
    const MatView out = Alloc(w.rows, w.cols);
    MulInto(w, mask, out);
    return out;
  }
  MatView WeighRows(const MatView& a, const MatView& w, MatView out) const {
    MulColBroadcastInto(a, w, out);
    return out;
  }
  MatView MaskRows(const MatView& a, const ConstMatView& mask,
                   MatView out) const {
    MulColBroadcastInto(a, mask, out);
    return out;
  }
  MatView Add(const MatView& acc, const MatView& c) const {
    AddInPlace(acc, c);
    return acc;
  }
  MatView SoftmaxRows(const MatView& a) const {
    SoftmaxRowsInPlace(a);
    return a;
  }
  MatView TopK(const MatView& a, int64_t k) const {
    TopKMulInPlace(a, k, arena_);
    return a;
  }
  MatView Gather(const EmbeddingTable& table, const int64_t* ids,
                 int64_t count, int64_t id_stride, MatView out) const {
    GatherRowsInto(table.table().value(), ids, count, id_stride, out);
    return out;
  }
  MatView Constant(const ConstMatView& value, MatView out) const {
    CopyInto(value, out);
    return out;
  }
  MatView Concat(const Parts&, MatView out) const { return out; }

 private:
  InferenceArena* arena_;
};

}  // namespace awmoe

#endif  // AWMOE_NN_EXEC_H_
