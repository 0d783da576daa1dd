#include "autograd/ops.h"

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "mat/kernels.h"
#include "util/rng.h"

namespace awmoe {
namespace {

Var RandomVar(int64_t rows, int64_t cols, Rng* rng, bool requires_grad) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal());
  }
  return Var(std::move(m), requires_grad);
}

TEST(OpsTest, MatMulForward) {
  Var a(Matrix::FromVector(2, 2, {1, 2, 3, 4}));
  Var b(Matrix::FromVector(2, 2, {5, 6, 7, 8}));
  Var c = ag::MatMul(a, b);
  EXPECT_TRUE(AllClose(c.value(),
                       Matrix::FromVector(2, 2, {19, 22, 43, 50}), 1e-6f));
}

TEST(OpsTest, MatMulBackwardShapes) {
  Rng rng(1);
  Var a = RandomVar(3, 4, &rng, true);
  Var b = RandomVar(4, 2, &rng, true);
  Var loss = ag::MeanAll(ag::MatMul(a, b));
  loss.Backward();
  EXPECT_TRUE(a.grad().SameShape(a.value()));
  EXPECT_TRUE(b.grad().SameShape(b.value()));
}

TEST(OpsTest, SigmoidForwardMidpoint) {
  Var a(Matrix::Full(1, 1, 0.0f));
  EXPECT_NEAR(ag::Sigmoid(a).value()(0, 0), 0.5f, 1e-6f);
}

TEST(OpsTest, ConcatColsForwardAndBackward) {
  Var a(Matrix::Full(2, 1, 1.0f), true);
  Var b(Matrix::Full(2, 2, 2.0f), true);
  Var c = ag::ConcatCols({a, b});
  EXPECT_EQ(c.cols(), 3);
  Var loss = ag::SumAll(c);
  loss.Backward();
  EXPECT_TRUE(AllClose(a.grad(), Matrix::Full(2, 1, 1.0f), 0.0f));
  EXPECT_TRUE(AllClose(b.grad(), Matrix::Full(2, 2, 1.0f), 0.0f));
}

TEST(OpsTest, GatherRowsBackwardScatters) {
  Var table(Matrix::FromVector(3, 2, {1, 1, 2, 2, 3, 3}), true);
  Var rows = ag::GatherRows(table, {0, 2, 2});
  Var loss = ag::SumAll(rows);
  loss.Backward();
  // Row 0 used once, row 1 never, row 2 twice.
  EXPECT_TRUE(AllClose(table.grad(),
                       Matrix::FromVector(3, 2, {1, 1, 0, 0, 2, 2}), 0.0f));
}

TEST(OpsTest, MulColBroadcastForward) {
  Var a(Matrix::FromVector(2, 2, {1, 2, 3, 4}));
  Var w(Matrix::ColVector({10, 0.5f}));
  Var out = ag::MulColBroadcast(a, w);
  EXPECT_TRUE(AllClose(out.value(),
                       Matrix::FromVector(2, 2, {10, 20, 1.5f, 2}), 1e-6f));
}

TEST(OpsTest, DotRowsForward) {
  Var a(Matrix::FromVector(2, 2, {1, 2, 3, 4}));
  Var b(Matrix::FromVector(2, 2, {1, 1, 1, 1}));
  EXPECT_TRUE(AllClose(ag::DotRows(a, b).value(),
                       Matrix::ColVector({3, 7}), 1e-6f));
}

TEST(OpsTest, SoftmaxRowsIsDistribution) {
  Rng rng(2);
  Var a = RandomVar(4, 5, &rng, false);
  Matrix s = ag::SoftmaxRows(a).value();
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0;
    for (int64_t c = 0; c < 5; ++c) total += s(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, MulMaskZeroesAndPasses) {
  Var a(Matrix::FromVector(1, 4, {1, 2, 3, 4}), true);
  Matrix mask = Matrix::FromVector(1, 4, {1, 0, 1, 0});
  Var out = ag::MulMask(a, mask);
  EXPECT_TRUE(AllClose(out.value(),
                       Matrix::FromVector(1, 4, {1, 0, 3, 0}), 0.0f));
  ag::SumAll(out).Backward();
  EXPECT_TRUE(AllClose(a.grad(), mask, 0.0f));
}

TEST(OpsTest, BceWithLogitsMatchesNaive) {
  // Hand-check against -[t log(p) + (1-t) log(1-p)].
  Var logits(Matrix::ColVector({0.7f, -1.3f, 2.0f}), true);
  Matrix targets = Matrix::ColVector({1.0f, 0.0f, 1.0f});
  Var loss = ag::BceWithLogitsLoss(logits, targets);
  double expected = 0.0;
  for (int i = 0; i < 3; ++i) {
    double x = logits.value()(i, 0);
    double t = targets(i, 0);
    double p = 1.0 / (1.0 + std::exp(-x));
    expected += -(t * std::log(p) + (1 - t) * std::log(1 - p));
  }
  expected /= 3.0;
  EXPECT_NEAR(loss.value()(0, 0), expected, 1e-5f);
}

TEST(OpsTest, BceWithLogitsStableForExtremeLogits) {
  Var logits(Matrix::ColVector({80.0f, -80.0f}), true);
  Matrix targets = Matrix::ColVector({0.0f, 1.0f});
  Var loss = ag::BceWithLogitsLoss(logits, targets);
  EXPECT_TRUE(std::isfinite(loss.value()(0, 0)));
  loss.Backward();
  EXPECT_TRUE(std::isfinite(logits.grad()(0, 0)));
  // Gradient saturates at +-1/m.
  EXPECT_NEAR(logits.grad()(0, 0), 0.5f, 1e-4f);
  EXPECT_NEAR(logits.grad()(1, 0), -0.5f, 1e-4f);
}

TEST(OpsTest, BceGradientIsSigmoidMinusTarget) {
  Var logits(Matrix::ColVector({0.0f}), true);
  Matrix targets = Matrix::ColVector({1.0f});
  ag::BceWithLogitsLoss(logits, targets).Backward();
  EXPECT_NEAR(logits.grad()(0, 0), 0.5f - 1.0f, 1e-6f);
}

TEST(OpsTest, InfoNceDecreasesWhenPositiveCloser) {
  Rng rng(3);
  Var anchor = RandomVar(8, 4, &rng, false);
  // Positive identical to anchor; negatives random.
  Var positive(anchor.value());
  Var neg1 = RandomVar(8, 4, &rng, false);
  Var neg2 = RandomVar(8, 4, &rng, false);
  Var aligned = ag::InfoNceLoss(anchor, positive, {neg1, neg2});

  Var random_pos = RandomVar(8, 4, &rng, false);
  Var misaligned = ag::InfoNceLoss(anchor, random_pos, {neg1, neg2});
  EXPECT_LT(aligned.value()(0, 0), misaligned.value()(0, 0));
}

TEST(OpsTest, InfoNceWithNoNegativesIsZero) {
  // With only the positive in the denominator the loss is exactly zero.
  Rng rng(4);
  Var anchor = RandomVar(4, 3, &rng, false);
  Var positive(anchor.value());
  Var loss = ag::InfoNceLoss(anchor, positive, {});
  EXPECT_NEAR(loss.value()(0, 0), 0.0f, 1e-6f);
}

TEST(OpsTest, LogSumExpRowsForward) {
  Var a(Matrix::FromVector(1, 3, {1.0f, 2.0f, 3.0f}));
  float expected =
      std::log(std::exp(1.0f) + std::exp(2.0f) + std::exp(3.0f));
  EXPECT_NEAR(ag::LogSumExpRows(a).value()(0, 0), expected, 1e-5f);
}

/// Central-difference gradient check of `leaf` through `forward` (a
/// scalar-loss graph builder over the same leaf). Rebuilds the graph per
/// perturbation; `forward` must be pure in the leaf's current value.
void CheckGradFiniteDifference(Var leaf, const std::function<Var()>& forward,
                               float tol) {
  leaf.ZeroGrad();  // Backward accumulates; a prior check must not leak in.
  Var loss = forward();
  loss.Backward();
  ASSERT_TRUE(leaf.has_grad());
  const Matrix grad = leaf.grad();
  const float eps = 1e-2f;
  float* data = leaf.mutable_value().data();
  for (int64_t i = 0; i < leaf.value().size(); ++i) {
    const float orig = data[i];
    data[i] = orig + eps;
    const float up = forward().value()(0, 0);
    data[i] = orig - eps;
    const float down = forward().value()(0, 0);
    data[i] = orig;
    const float want = (up - down) / (2.0f * eps);
    EXPECT_NEAR(grad.data()[i], want, tol) << "entry " << i;
  }
}

TEST(OpsTest, MatMulNTForwardMatchesRowDots) {
  Rng rng(21);
  Var a = RandomVar(3, 4, &rng, false);
  Var b = RandomVar(5, 4, &rng, false);
  Matrix got = ag::MatMulNT(a, b).value();
  ASSERT_EQ(got.rows(), 3);
  ASSERT_EQ(got.cols(), 5);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      float want = 0.0f;
      for (int64_t p = 0; p < 4; ++p) {
        want += a.value()(i, p) * b.value()(j, p);
      }
      EXPECT_NEAR(got(i, j), want, 1e-5f);
    }
  }
}

TEST(OpsTest, MatMulNTBackwardFiniteDifference) {
  Rng rng(22);
  Var a = RandomVar(3, 4, &rng, true);
  Var b = RandomVar(5, 4, &rng, true);
  // Random fixed weights make the loss sensitive to every entry with a
  // distinct coefficient, so a transposed gradient cannot pass.
  Var w = RandomVar(3, 5, &rng, false);
  const auto forward = [&] { return ag::SumAll(ag::Mul(ag::MatMulNT(a, b), w)); };
  CheckGradFiniteDifference(a, forward, 5e-2f);
  CheckGradFiniteDifference(b, forward, 5e-2f);
}

TEST(OpsTest, MaskedSoftmaxRowsMatchesBlockSoftmaxBitwise) {
  // A row whose included columns form a contiguous block must equal
  // SoftmaxRows run on that block alone, bit for bit — the property the
  // listwise reranker's graph-vs-workspace equality rests on.
  Rng rng(23);
  Var a = RandomVar(2, 5, &rng, false);
  Matrix mask(2, 5);
  for (int64_t c = 1; c <= 3; ++c) mask(0, c) = 1.0f;  // Row 0: cols 1..3.
  for (int64_t c = 0; c <= 4; ++c) mask(1, c) = 1.0f;  // Row 1: all.
  Matrix got = ag::MaskedSoftmaxRows(a, mask).value();

  Matrix block0(1, 3);
  for (int64_t c = 0; c < 3; ++c) block0(0, c) = a.value()(0, c + 1);
  Matrix want0 = SoftmaxRows(block0);
  EXPECT_EQ(got(0, 0), 0.0f);
  EXPECT_EQ(got(0, 4), 0.0f);
  for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(got(0, c + 1), want0(0, c));

  Matrix row1(1, 5);
  for (int64_t c = 0; c < 5; ++c) row1(0, c) = a.value()(1, c);
  Matrix want1 = SoftmaxRows(row1);
  for (int64_t c = 0; c < 5; ++c) EXPECT_EQ(got(1, c), want1(0, c));
}

TEST(OpsTest, MaskedSoftmaxRowsBackwardFiniteDifference) {
  Rng rng(24);
  Var a = RandomVar(2, 4, &rng, true);
  Matrix mask(2, 4);
  for (int64_t c = 0; c <= 2; ++c) mask(0, c) = 1.0f;
  for (int64_t c = 1; c <= 3; ++c) mask(1, c) = 1.0f;
  Var w = RandomVar(2, 4, &rng, false);
  CheckGradFiniteDifference(
      a, [&] { return ag::SumAll(ag::Mul(ag::MaskedSoftmaxRows(a, mask), w)); },
      5e-2f);
}

TEST(OpsTest, ListwiseSoftmaxCrossEntropyValue) {
  // One slate of three, single positive at row 1: loss is -log p_1.
  Var logits(Matrix::FromVector(3, 1, {1.0f, 2.0f, 0.5f}));
  Matrix targets = Matrix::FromVector(3, 1, {0.0f, 1.0f, 0.0f});
  Var loss =
      ag::ListwiseSoftmaxCrossEntropy(logits, targets, {0});
  const double denom =
      std::exp(1.0 - 2.0) + std::exp(2.0 - 2.0) + std::exp(0.5 - 2.0);
  EXPECT_NEAR(loss.value()(0, 0), std::log(denom), 1e-5f);
}

TEST(OpsTest, ListwiseSoftmaxCrossEntropySkipsSlatesWithoutPositives) {
  // Second slate has no positive: it contributes neither loss nor count.
  Var logits(Matrix::FromVector(4, 1, {1.0f, 2.0f, 3.0f, -1.0f}));
  Matrix targets = Matrix::FromVector(4, 1, {0.0f, 1.0f, 0.0f, 0.0f});
  Var with_empty =
      ag::ListwiseSoftmaxCrossEntropy(logits, targets, {0, 2});
  Var first_only = ag::ListwiseSoftmaxCrossEntropy(
      Var(Matrix::FromVector(2, 1, {1.0f, 2.0f})),
      Matrix::FromVector(2, 1, {0.0f, 1.0f}), {0});
  EXPECT_NEAR(with_empty.value()(0, 0), first_only.value()(0, 0), 1e-6f);

  // No slate has a positive anywhere: the loss is exactly zero.
  Matrix all_negative(4, 1);
  Var empty_loss = ag::ListwiseSoftmaxCrossEntropy(
      Var(Matrix::FromVector(4, 1, {1.0f, 2.0f, 3.0f, -1.0f})), all_negative,
      {0, 2});
  EXPECT_EQ(empty_loss.value()(0, 0), 0.0f);
}

TEST(OpsTest, ListwiseSoftmaxCrossEntropyBackwardFiniteDifference) {
  Rng rng(25);
  Var logits = RandomVar(7, 1, &rng, true);
  Matrix targets = Matrix::FromVector(7, 1,
                                      {1.0f, 0.0f, 0.0f,    // Slate 0.
                                       0.0f, 1.0f, 1.0f, 0.0f});  // Slate 1.
  CheckGradFiniteDifference(
      logits,
      [&] { return ag::ListwiseSoftmaxCrossEntropy(logits, targets, {0, 3}); },
      5e-2f);
}

TEST(OpsTest, InferenceUnderNoGradBuildsNoGraph) {
  Rng rng(5);
  Var w = RandomVar(4, 4, &rng, true);
  Var x = RandomVar(2, 4, &rng, false);
  NoGradGuard guard;
  Var y = ag::Relu(ag::MatMul(x, w));
  EXPECT_TRUE(y.impl()->parents.empty());
  EXPECT_FALSE(y.requires_grad());
}

}  // namespace
}  // namespace awmoe
