#include "nn/optimizer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "mat/kernels.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace awmoe {
namespace {

// Minimises f(w) = mean((w - target)^2) and returns final w for a 1-element
// parameter, to verify each optimizer actually descends.
template <typename MakeOpt>
float MinimiseQuadratic(MakeOpt make_opt, int steps) {
  Var w(Matrix::Full(1, 1, 5.0f), /*requires_grad=*/true);
  auto opt = make_opt(std::vector<Var>{w});
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    Var diff = ag::AddScalar(w, -2.0f);  // target = 2.
    Var loss = ag::MeanAll(ag::Mul(diff, diff));
    loss.Backward();
    opt->Step();
  }
  return w.value()(0, 0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  float w = MinimiseQuadratic(
      [](std::vector<Var> p) {
        return std::make_unique<Adam>(std::move(p), 0.1f);
      },
      500);
  EXPECT_NEAR(w, 2.0f, 1e-2f);
}

TEST(AdamWTest, ConvergesOnQuadratic) {
  float w = MinimiseQuadratic(
      [](std::vector<Var> p) {
        return std::make_unique<AdamW>(std::move(p), 0.1f, 1e-4f);
      },
      500);
  EXPECT_NEAR(w, 2.0f, 5e-2f);
}

TEST(AdamWTest, DecayShrinksUnusedDirection) {
  // With pure decay (zero gradient), AdamW shrinks weights; Adam leaves
  // them, since its decay is coupled through the gradient (none here).
  Var w_adamw(Matrix::Full(1, 1, 1.0f), true);
  AdamW adamw({w_adamw}, /*lr=*/0.1f, /*weight_decay=*/0.5f);
  // Give it a zero gradient so only decay acts.
  internal_ag::AccumulateGrad(w_adamw.impl().get(), Matrix(1, 1));
  adamw.Step();
  EXPECT_LT(w_adamw.value()(0, 0), 1.0f);
}

TEST(OptimizerTest, SkipsParamsWithoutGrad) {
  Var used(Matrix::Full(1, 1, 1.0f), true);
  Var unused(Matrix::Full(1, 1, 1.0f), true);
  AdamW opt({used, unused}, 0.5f);
  ag::MeanAll(ag::Mul(used, used)).Backward();
  opt.Step();
  EXPECT_NE(used.value()(0, 0), 1.0f);
  EXPECT_EQ(unused.value()(0, 0), 1.0f);
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Var a(Matrix::Full(1, 1, 1.0f), true);
  AdamW opt({a}, 0.1f);
  ag::MeanAll(ag::Mul(a, a)).Backward();
  EXPECT_TRUE(a.has_grad());
  opt.ZeroGrad();
  EXPECT_FALSE(a.has_grad());
}

// The AdamW loop as it ran before the update went 4-wide: the reference
// the vector update must match bit for bit.
void ScalarAdamWStep(int64_t step, float lr, float wd, const Matrix& grad,
                     std::vector<float>* x, std::vector<float>* m,
                     std::vector<float>* v) {
  const float beta1 = 0.9f, beta2 = 0.999f, epsilon = 1e-8f;
  const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(step));
  const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(step));
  const float* g = grad.data();
  for (size_t j = 0; j < x->size(); ++j) {
    (*m)[j] = beta1 * (*m)[j] + (1.0f - beta1) * g[j];
    (*v)[j] = beta2 * (*v)[j] + (1.0f - beta2) * g[j] * g[j];
    float m_hat = (*m)[j] / bc1;
    float v_hat = (*v)[j] / bc2;
    (*x)[j] -= lr * (m_hat / (std::sqrt(v_hat) + epsilon) + wd * (*x)[j]);
  }
}

void SetGrad(Var* p, const Matrix& grad) {
  p->ZeroGrad();
  internal_ag::AccumulateGrad(p->impl().get(), grad);
}

// Step() runs four lanes at a time; lengths 0-9 cover every tail, the
// AW-MoE parameter count covers a long run, and a zero gradient leaves
// only the decay term.
TEST(AdamWTest, VectorUpdateMatchesScalarLoopBitwise) {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 9; ++n) lengths.push_back(n);
  lengths.push_back(112270);
  const float lr = 2e-3f, wd = 1e-5f;
  for (const int64_t n : lengths) {
    for (const bool zero_grad : {false, true}) {
      Rng rng(static_cast<uint64_t>(n) + 1);
      Matrix init(1, n);
      for (int64_t j = 0; j < n; ++j) {
        init.data()[j] = static_cast<float>(rng.Normal());
      }
      Var p(init, /*requires_grad=*/true);
      AdamW optimizer({p}, lr, wd);
      std::vector<float> x(init.data(), init.data() + n);
      std::vector<float> m(static_cast<size_t>(n), 0.0f);
      std::vector<float> v(static_cast<size_t>(n), 0.0f);
      for (int64_t step = 1; step <= 3; ++step) {
        Matrix grad(1, n);
        if (!zero_grad) {
          for (int64_t j = 0; j < n; ++j) {
            grad.data()[j] = static_cast<float>(rng.Normal()) * 0.1f;
          }
        }
        SetGrad(&p, grad);
        optimizer.Step();
        ScalarAdamWStep(step, lr, wd, grad, &x, &m, &v);
        for (int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<uint32_t>(p.value().data()[j]),
                    std::bit_cast<uint32_t>(x[static_cast<size_t>(j)]))
              << "n=" << n << " zero_grad=" << zero_grad << " step " << step
              << " element " << j;
        }
      }
    }
  }
}

TEST(ClipGradNormTest, ClipsLargeGradients) {
  Var a(Matrix::Full(1, 2, 1.0f), true);
  internal_ag::AccumulateGrad(a.impl().get(),
                              Matrix::FromVector(1, 2, {3.0f, 4.0f}));
  std::vector<Var> params = {a};
  double pre = ClipGradNorm(&params, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(Norm(a.grad()), 1.0, 1e-5);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Var a(Matrix::Full(1, 2, 1.0f), true);
  internal_ag::AccumulateGrad(a.impl().get(),
                              Matrix::FromVector(1, 2, {0.3f, 0.4f}));
  std::vector<Var> params = {a};
  ClipGradNorm(&params, 1.0);
  EXPECT_NEAR(Norm(a.grad()), 0.5, 1e-6);
}

TEST(TrainingIntegrationTest, MlpLearnsXor) {
  // End-to-end learning sanity: a small MLP must fit XOR.
  Rng rng(42);
  Mlp mlp(2, {8, 1}, &rng);
  AdamW opt(mlp.Parameters(), 0.05f, 0.0f);

  Matrix x = Matrix::FromVector(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  Matrix y = Matrix::ColVector({0, 1, 1, 0});

  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 800; ++epoch) {
    opt.ZeroGrad();
    Var logits = mlp.Forward(Var(x));
    Var loss = ag::BceWithLogitsLoss(logits, y);
    loss.Backward();
    opt.Step();
    final_loss = loss.value()(0, 0);
  }
  EXPECT_LT(final_loss, 0.1f);

  // Predictions on all four corners must be on the right side of 0.5.
  NoGradGuard guard;
  Matrix probs = Sigmoid(mlp.Forward(Var(x)).value());
  EXPECT_LT(probs(0, 0), 0.5f);
  EXPECT_GT(probs(1, 0), 0.5f);
  EXPECT_GT(probs(2, 0), 0.5f);
  EXPECT_LT(probs(3, 0), 0.5f);
}

}  // namespace
}  // namespace awmoe
