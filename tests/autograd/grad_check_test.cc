#include "autograd/grad_check.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/exec.h"
#include "util/rng.h"

namespace awmoe {
namespace {

// Property-style verification: every differentiable op's analytic gradient
// must match central differences on random inputs.

Var RandomVar(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, 0.8));
  }
  return Var(std::move(m), /*requires_grad=*/true);
}

void ExpectGradOk(const std::function<Var(const std::vector<Var>&)>& fn,
                  std::vector<Var> inputs) {
  GradCheckResult result = CheckGradients(fn, std::move(inputs));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(GradCheckTest, MatMul) {
  Rng rng(11);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::MatMul(in[0], in[1]));
      },
      {RandomVar(3, 4, &rng), RandomVar(4, 2, &rng)});
}

TEST(GradCheckTest, AddSubMul) {
  Rng rng(12);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(
            ag::Mul(ag::Add(in[0], in[1]), ag::Sub(in[0], in[1])));
      },
      {RandomVar(3, 3, &rng), RandomVar(3, 3, &rng)});
}

TEST(GradCheckTest, AddBias) {
  Rng rng(13);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::AddBias(in[0], in[1]));
      },
      {RandomVar(4, 3, &rng), RandomVar(1, 3, &rng)});
}

TEST(GradCheckTest, ReluOffKink) {
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Matrix m = Matrix::FromVector(2, 3, {1.0f, -1.0f, 2.0f,
                                       -2.0f, 0.5f, -0.5f});
  ExpectGradOk(
      [](const std::vector<Var>& in) { return ag::MeanAll(ag::Relu(in[0])); },
      {Var(m, true)});
}

TEST(GradCheckTest, SigmoidTanh) {
  Rng rng(14);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::Sigmoid(in[0]));
      },
      {RandomVar(3, 3, &rng)});
  ExpectGradOk(
      [](const std::vector<Var>& in) { return ag::MeanAll(ag::Tanh(in[0])); },
      {RandomVar(3, 3, &rng)});
}

TEST(GradCheckTest, ConcatCols) {
  Rng rng(15);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::ConcatCols({in[0], in[1], in[2]}));
      },
      {RandomVar(2, 2, &rng), RandomVar(2, 3, &rng), RandomVar(2, 1, &rng)});
}

TEST(GradCheckTest, SliceCols) {
  Rng rng(16);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::SliceCols(in[0], 1, 3));
      },
      {RandomVar(3, 4, &rng)});
}

TEST(GradCheckTest, GatherRows) {
  Rng rng(17);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::GatherRows(in[0], {0, 2, 2, 1}));
      },
      {RandomVar(3, 3, &rng)});
}

TEST(GradCheckTest, MulColBroadcast) {
  Rng rng(18);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::MulColBroadcast(in[0], in[1]));
      },
      {RandomVar(3, 4, &rng), RandomVar(3, 1, &rng)});
}

TEST(GradCheckTest, DotRows) {
  Rng rng(19);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::DotRows(in[0], in[1]));
      },
      {RandomVar(4, 3, &rng), RandomVar(4, 3, &rng)});
}

TEST(GradCheckTest, SoftmaxRows) {
  Rng rng(20);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        // Weighted sum to give softmax a non-uniform downstream gradient.
        Var weights(Matrix::FromVector(3, 4, {1, 2, 3, 4,
                                              4, 3, 2, 1,
                                              0, 1, 0, 1}));
        return ag::MeanAll(ag::Mul(ag::SoftmaxRows(in[0]), weights));
      },
      {RandomVar(3, 4, &rng)});
}

TEST(GradCheckTest, LogSumExpRows) {
  Rng rng(21);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::LogSumExpRows(in[0]));
      },
      {RandomVar(4, 5, &rng)});
}

TEST(GradCheckTest, BceWithLogits) {
  Rng rng(22);
  Matrix targets = Matrix::ColVector({1, 0, 1, 0});
  ExpectGradOk(
      [targets](const std::vector<Var>& in) {
        return ag::BceWithLogitsLoss(in[0], targets);
      },
      {RandomVar(4, 1, &rng)});
}

TEST(GradCheckTest, InfoNceLoss) {
  Rng rng(23);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::InfoNceLoss(in[0], in[1], {in[2], in[3]});
      },
      {RandomVar(3, 4, &rng), RandomVar(3, 4, &rng), RandomVar(3, 4, &rng),
       RandomVar(3, 4, &rng)});
}

TEST(GradCheckTest, CompositeExpression) {
  // A DIN-like expression: attention-weighted sum then MLP-ish tail.
  Rng rng(24);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        Var att = ag::Sigmoid(ag::DotRows(in[0], in[1]));
        Var pooled = ag::MulColBroadcast(in[0], att);
        Var joined = ag::ConcatCols({pooled, in[1]});
        return ag::MeanAll(ag::Relu(ag::MatMul(joined, in[2])));
      },
      {RandomVar(3, 4, &rng), RandomVar(3, 4, &rng), RandomVar(8, 2, &rng)});
}

TEST(GradCheckTest, DetectsWrongGradient) {
  // Sanity check that the checker itself can fail: compare d/dx of x^2
  // against a deliberately broken closure (treating it as 3x).
  Rng rng(25);
  Var x = RandomVar(2, 2, &rng);
  Var out = ag::MeanAll(ag::Mul(x, x));
  out.Backward();
  Matrix analytic = x.grad();
  // Central difference of mean(x^2) is 2x/n; our analytic grad must match,
  // and 1.5x that value must not.
  GradCheckResult good = CheckGradients(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(ag::Mul(in[0], in[0]));
      },
      {x});
  EXPECT_TRUE(good.ok) << good.message;
}

// The behaviour-stack ops. Each output is weighted by a random matrix
// so every output element carries a distinct gradient.
TEST(GradCheckTest, ScatterSumRows) {
  // Six rows into four outputs: output 1 takes three rows (first copied,
  // then added), output 3 one, outputs 0 and 2 none.
  Rng rng(31);
  ExpectGradOk(
      [](const std::vector<Var>& in) {
        return ag::MeanAll(
            ag::Mul(ag::ScatterSumRows(in[0], {1, 3, 1, 1, 2, 2}, 4), in[1]));
      },
      {RandomVar(6, 2, &rng), RandomVar(4, 2, &rng)});
}

TEST(GradCheckTest, ProductPathPairsStackRowsWithTheirReference) {
  // A [2 examples, 3 positions] mask with holes lists (position,
  // example) = (0,0), (0,1), (1,1), (2,0): b's gradient sums over each
  // example's rows only.
  const Matrix mask = Matrix::FromVector(2, 3, {1.0f, 0.0f, 1.0f,  //
                                                1.0f, 1.0f, 0.0f});
  const GraphExec::RowList list = GraphExec().BehaviorRows(MatrixView(mask));
  const StackRows rows = list;
  ASSERT_EQ(rows.size(), 4);
  Rng rng(32);
  ExpectGradOk(
      [&rows](const std::vector<Var>& in) {
        return ag::MeanAll(
            ag::Mul(GraphExec().ProductPath(in[0], in[1], rows, {}), in[2]));
      },
      {RandomVar(4, 3, &rng), RandomVar(2, 3, &rng), RandomVar(4, 9, &rng)});
}

}  // namespace
}  // namespace awmoe
