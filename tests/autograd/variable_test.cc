#include "autograd/variable.h"

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "mat/kernels.h"

namespace awmoe {
namespace {

TEST(VariableTest, DefaultUndefined) {
  Var v;
  EXPECT_FALSE(v.defined());
}

TEST(VariableTest, LeafHoldsValue) {
  Var v(Matrix::Full(2, 2, 1.5f));
  EXPECT_TRUE(v.defined());
  EXPECT_EQ(v.rows(), 2);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_EQ(v.value()(0, 0), 1.5f);
  EXPECT_FALSE(v.requires_grad());
  EXPECT_TRUE(v.impl()->parents.empty());
  EXPECT_STREQ(v.impl()->op, "leaf");
}

TEST(VariableTest, CopyAliasesSameNode) {
  Var a(Matrix::Full(1, 1, 1.0f), /*requires_grad=*/true);
  Var b = a;
  b.mutable_value()(0, 0) = 9.0f;
  EXPECT_EQ(a.value()(0, 0), 9.0f);
}

TEST(VariableTest, BackwardOnScalarSeedsGradOne) {
  Var a(Matrix::Full(1, 1, 3.0f), /*requires_grad=*/true);
  Var out = ag::Scale(a, 2.0f);
  out.Backward();
  ASSERT_TRUE(a.has_grad());
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 2.0f);
}

TEST(VariableTest, GradAccumulatesAcrossUses) {
  // out = a + a: grad should be 2.
  Var a(Matrix::Full(1, 1, 1.0f), /*requires_grad=*/true);
  Var out = ag::Add(a, a);
  out.Backward();
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 2.0f);
}

TEST(VariableTest, DiamondGraphAccumulatesOnce) {
  // out = (a*a) + (a*a) computed through shared intermediate.
  Var a(Matrix::Full(1, 1, 3.0f), /*requires_grad=*/true);
  Var sq = ag::Mul(a, a);
  Var out = ag::Add(sq, sq);
  out.Backward();
  // d/da (2 a^2) = 4a = 12.
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 12.0f);
}

TEST(VariableTest, ZeroGradClears) {
  Var a(Matrix::Full(1, 1, 1.0f), /*requires_grad=*/true);
  Var out = ag::Scale(a, 3.0f);
  out.Backward();
  EXPECT_TRUE(a.has_grad());
  a.ZeroGrad();
  EXPECT_FALSE(a.has_grad());
}

TEST(VariableTest, SecondBackwardAccumulates) {
  Var a(Matrix::Full(1, 1, 1.0f), /*requires_grad=*/true);
  Var out1 = ag::Scale(a, 3.0f);
  out1.Backward();
  Var out2 = ag::Scale(a, 4.0f);
  out2.Backward();
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 7.0f);
}

TEST(VariableTest, NoGradLeafGetsNoGradient) {
  Var a(Matrix::Full(1, 1, 2.0f), /*requires_grad=*/true);
  Var constant(Matrix::Full(1, 1, 5.0f));
  Var out = ag::Mul(a, constant);
  out.Backward();
  EXPECT_TRUE(a.has_grad());
  EXPECT_FALSE(constant.has_grad());
  EXPECT_FLOAT_EQ(a.grad()(0, 0), 5.0f);
}

TEST(VariableTest, NoGradGuardDetachesResults) {
  Var a(Matrix::Full(1, 1, 2.0f), /*requires_grad=*/true);
  {
    NoGradGuard guard;
    EXPECT_TRUE(NoGradGuard::Active());
    Var out = ag::Scale(a, 2.0f);
    EXPECT_FALSE(out.requires_grad());
    EXPECT_TRUE(out.impl()->parents.empty());
  }
  EXPECT_FALSE(NoGradGuard::Active());
  Var out = ag::Scale(a, 2.0f);
  EXPECT_TRUE(out.requires_grad());
}

TEST(VariableTest, NoGradGuardNests) {
  NoGradGuard outer;
  {
    NoGradGuard inner;
    EXPECT_TRUE(NoGradGuard::Active());
  }
  EXPECT_TRUE(NoGradGuard::Active());
}

TEST(VariableTest, DeepChainBackward) {
  // 60-op chain exercises the iterative DFS (no recursion limits).
  Var a(Matrix::Full(1, 1, 1.0f), /*requires_grad=*/true);
  Var h = a;
  for (int i = 0; i < 60; ++i) h = ag::Scale(h, 1.01f);
  h.Backward();
  float expected = std::pow(1.01f, 60.0f);
  EXPECT_NEAR(a.grad()(0, 0), expected, 1e-3f);
}

TEST(VariableTest, BackwardReleasesOpResultGradients) {
  // loss = sum(2 * ((a + b - b) + bias + 1) - a) = sum(a + 2 bias + 2),
  // built from every pass-through op (add, sub, add_bias, add_scalar)
  // and a shared operand (v + v). Backward leaves gradients on the
  // leaves and the root only; the leaves' are exact small integers.
  Var a(Matrix::FromVector(2, 2, {1.0f, -2.0f, 0.5f, 3.0f}), true);
  Var b(Matrix::FromVector(2, 2, {4.0f, 1.0f, -1.0f, 2.0f}), true);
  Var bias(Matrix::RowVector({0.25f, -0.75f}), true);
  Var constant(Matrix::Full(2, 2, 7.0f));
  const Var s = ag::Add(a, b);
  const Var t = ag::Sub(s, b);
  const Var u = ag::AddBias(t, bias);
  const Var v = ag::AddScalar(u, 1.0f);
  const Var w = ag::Add(v, v);
  const Var z = ag::Sub(w, a);
  const Var c = ag::Add(z, constant);
  Var loss = ag::SumAll(c);
  loss.Backward();

  for (const Var& op_result : {s, t, u, v, w, z, c}) {
    EXPECT_FALSE(op_result.has_grad()) << op_result.impl()->op;
  }
  EXPECT_FALSE(constant.has_grad());
  ASSERT_TRUE(loss.has_grad());
  EXPECT_EQ(loss.grad()(0, 0), 1.0f);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.grad().data()[i], 1.0f) << i;
    EXPECT_EQ(b.grad().data()[i], 0.0f) << i;
  }
  EXPECT_EQ(bias.grad()(0, 0), 4.0f);
  EXPECT_EQ(bias.grad()(0, 1), 4.0f);
}

TEST(VariableTest, TakeGradMovesTheGradientOut) {
  Var a(Matrix::Full(1, 2, 1.0f), /*requires_grad=*/true);
  Var out = ag::SumAll(ag::Scale(a, 3.0f));
  out.Backward();
  const Matrix grad = a.TakeGrad();
  EXPECT_FALSE(a.has_grad());
  EXPECT_EQ(grad(0, 0), 3.0f);
  EXPECT_EQ(grad(0, 1), 3.0f);
}

TEST(VariableDeathTest, BackwardRequiresScalar) {
  Var a(Matrix::Full(2, 2, 1.0f), /*requires_grad=*/true);
  Var out = ag::Scale(a, 2.0f);
  EXPECT_DEATH(out.Backward(), "scalar");
}

TEST(VariableDeathTest, GradWithoutBackwardChecks) {
  Var a(Matrix::Full(1, 1, 1.0f), /*requires_grad=*/true);
  EXPECT_DEATH(a.grad(), "no gradient");
}

}  // namespace
}  // namespace awmoe
