#ifndef AWMOE_AUTOGRAD_VARIABLE_H_
#define AWMOE_AUTOGRAD_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mat/matrix.h"

namespace awmoe {

namespace internal_ag {

/// Graph node behind a Var handle. Ops append parents and a backward
/// closure; Backward() walks the DAG in reverse topological order.
struct VarImpl {
  Matrix value;
  /// Allocated lazily on first accumulation. An op result's gradient
  /// lives only while Backward() needs it: it is released as soon as
  /// the node's backward_fn has run. Leaves and the root keep theirs.
  Matrix grad;
  bool requires_grad = false;
  bool has_grad = false;
  const char* op = "leaf";
  std::vector<std::shared_ptr<VarImpl>> parents;
  /// Reads `self.grad` (and possibly `self.value`) and accumulates into
  /// parent grads; a pass-through op may move `self.grad` into its
  /// last consumer, since Backward() drops it right after. Null for
  /// leaves.
  std::function<void(VarImpl& self)> backward_fn;
  /// The last Backward() walk that reached this node: its visited mark,
  /// so a walk needs no visited set. Every walk takes a fresh number.
  uint64_t visit_epoch = 0;
};

/// Accumulates `g` into `node`'s gradient (no-op if the node does not
/// require grad).
void AccumulateGrad(VarImpl* node, const Matrix& g);
/// Same, but a first accumulation takes ownership of `g` instead of
/// copying it — backward closures pass freshly computed temporaries.
void AccumulateGrad(VarImpl* node, Matrix&& g);

/// Ensures `node->grad` is allocated (zeros, value-shaped) so ops can
/// accumulate into it sparsely (embedding scatter-add).
void EnsureGrad(VarImpl* node);

}  // namespace internal_ag

/// Value-semantic handle to an autograd graph node. Copying a Var aliases
/// the same node (like a tensor handle), so passing Vars around is cheap.
///
/// Typical use:
///   Var w(Matrix(...), /*requires_grad=*/true);   // parameter leaf
///   Var y = ag::MatMul(x, w);
///   Var loss = ag::BceWithLogitsLoss(y, targets);
///   loss.Backward();
///   ... read w.grad(), step optimizer, w.ZeroGrad() ...
class Var {
 public:
  /// Undefined handle.
  Var() = default;

  /// Leaf variable wrapping `value`.
  explicit Var(Matrix value, bool requires_grad = false);

  Var(const Var&) = default;
  Var& operator=(const Var&) = default;
  Var(Var&&) = default;
  Var& operator=(Var&&) = default;

  bool defined() const { return impl_ != nullptr; }

  const Matrix& value() const;
  /// Mutable access for optimizers; must not be called on interior graph
  /// nodes while a backward pass is pending.
  Matrix& mutable_value();

  int64_t rows() const { return value().rows(); }
  int64_t cols() const { return value().cols(); }

  bool requires_grad() const;

  /// True once a gradient has been accumulated.
  bool has_grad() const;

  /// The accumulated gradient. CHECK-fails if no gradient is present.
  const Matrix& grad() const;

  /// Moves the accumulated gradient out and clears it, as ZeroGrad()
  /// does. CHECK-fails if no gradient is present.
  Matrix TakeGrad();

  /// Drops the accumulated gradient (shape is kept lazily).
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this node, which must hold a
  /// 1x1 scalar; seeds d(self)/d(self) = 1. Afterwards only the leaves
  /// that require grad and this node hold gradients: every other op
  /// result's gradient is released once its backward closure has run.
  void Backward();

  /// Internal node access for op implementations.
  const std::shared_ptr<internal_ag::VarImpl>& impl() const { return impl_; }

 private:
  explicit Var(std::shared_ptr<internal_ag::VarImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal_ag::VarImpl> impl_;

  friend Var MakeOpResult(
      Matrix value, const char* op, std::vector<Var> parents,
      std::function<void(internal_ag::VarImpl&)> backward_fn);
};

/// Builds an op-result Var: if graph recording is enabled and any parent
/// requires grad, the node is wired into the graph; otherwise it is a
/// detached leaf (cheap inference path).
Var MakeOpResult(Matrix value, const char* op, std::vector<Var> parents,
                 std::function<void(internal_ag::VarImpl&)> backward_fn);

/// RAII guard that disables graph recording in its scope (like
/// torch::NoGradGuard). Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when recording is currently suppressed.
  static bool Active();
};

}  // namespace awmoe

#endif  // AWMOE_AUTOGRAD_VARIABLE_H_
