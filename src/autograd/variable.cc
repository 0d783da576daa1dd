#include "autograd/variable.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "mat/kernels.h"
#include "util/check.h"

namespace awmoe {

namespace internal_ag {

namespace {

/// Shape-checks `g`; adds it to an existing gradient and returns true,
/// or returns false when `node` holds no gradient yet.
bool AddToExistingGrad(VarImpl* node, const Matrix& g) {
  AWMOE_CHECK(g.rows() == node->value.rows() && g.cols() == node->value.cols())
      << "grad shape " << g.ShapeString() << " vs value "
      << node->value.ShapeString() << " for op " << node->op;
  if (!node->has_grad) return false;
  AddInPlace(&node->grad, g);
  return true;
}

}  // namespace

void AccumulateGrad(VarImpl* node, const Matrix& g) {
  if (!node->requires_grad || AddToExistingGrad(node, g)) return;
  node->grad = g;
  node->has_grad = true;
}

void AccumulateGrad(VarImpl* node, Matrix&& g) {
  if (!node->requires_grad || AddToExistingGrad(node, g)) return;
  node->grad = std::move(g);
  node->has_grad = true;
}

void EnsureGrad(VarImpl* node) {
  if (!node->has_grad) {
    node->grad = Matrix(node->value.rows(), node->value.cols());
    node->has_grad = true;
  }
}

}  // namespace internal_ag

namespace {
thread_local int g_no_grad_depth = 0;
}  // namespace

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }
bool NoGradGuard::Active() { return g_no_grad_depth > 0; }

Var::Var(Matrix value, bool requires_grad)
    : impl_(std::make_shared<internal_ag::VarImpl>()) {
  impl_->value = std::move(value);
  impl_->requires_grad = requires_grad;
}

const Matrix& Var::value() const {
  AWMOE_CHECK(defined()) << "value() on undefined Var";
  return impl_->value;
}

Matrix& Var::mutable_value() {
  AWMOE_CHECK(defined()) << "mutable_value() on undefined Var";
  return impl_->value;
}

bool Var::requires_grad() const {
  return defined() && impl_->requires_grad;
}

bool Var::has_grad() const { return defined() && impl_->has_grad; }

const Matrix& Var::grad() const {
  AWMOE_CHECK(has_grad()) << "grad() but no gradient accumulated";
  return impl_->grad;
}

Matrix Var::TakeGrad() {
  AWMOE_CHECK(has_grad()) << "TakeGrad() but no gradient accumulated";
  Matrix grad = std::move(impl_->grad);
  ZeroGrad();
  return grad;
}

void Var::ZeroGrad() {
  AWMOE_CHECK(defined());
  impl_->has_grad = false;
  impl_->grad = Matrix();
}

void Var::Backward() {
  AWMOE_CHECK(defined()) << "Backward() on undefined Var";
  AWMOE_CHECK(impl_->value.rows() == 1 && impl_->value.cols() == 1)
      << "Backward() requires a scalar (1x1) output, got "
      << impl_->value.ShapeString();
  AWMOE_CHECK(impl_->requires_grad)
      << "Backward() on a node that does not require grad";

  // Iterative post-order DFS to get a reverse topological order.
  using internal_ag::VarImpl;
  // A walk number no earlier or concurrent walk has: parallel trainer
  // workers run Backward at once, each over its own graph.
  static std::atomic<uint64_t> last_epoch{0};
  const uint64_t epoch = ++last_epoch;
  std::vector<VarImpl*> order;
  struct Frame {
    VarImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  impl_->visit_epoch = epoch;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      VarImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && parent->visit_epoch != epoch) {
        parent->visit_epoch = epoch;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Seed: d(self)/d(self) = 1.
  internal_ag::AccumulateGrad(impl_.get(), Matrix::Full(1, 1, 1.0f));
  const Matrix root_grad = impl_->grad;

  // order is post-order (children before parents in DFS tree), so walking it
  // backwards visits each node after all its consumers. Once a node's
  // closure has run, nothing reads or accumulates into its gradient
  // again, so an op result's gradient is released right there: live
  // gradient memory follows the walk's frontier instead of growing to
  // the sum over every node.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarImpl* node = *it;
    if (node->backward_fn && node->has_grad) {
      node->backward_fn(*node);
      node->grad = Matrix();
      node->has_grad = false;
    }
  }
  // The root keeps its 1x1 gradient, whatever its closure did with it.
  impl_->grad = root_grad;
  impl_->has_grad = true;
}

Var MakeOpResult(
    Matrix value, const char* op, std::vector<Var> parents,
    std::function<void(internal_ag::VarImpl&)> backward_fn) {
  auto impl = std::make_shared<internal_ag::VarImpl>();
  impl->value = std::move(value);
  impl->op = op;

  bool any_requires = false;
  if (!NoGradGuard::Active()) {
    for (const Var& p : parents) {
      if (p.requires_grad()) {
        any_requires = true;
        break;
      }
    }
  }
  if (any_requires) {
    impl->requires_grad = true;
    impl->parents.reserve(parents.size());
    for (Var& p : parents) impl->parents.push_back(p.impl());
    impl->backward_fn = std::move(backward_fn);
  }
  return Var(std::move(impl));
}

}  // namespace awmoe
