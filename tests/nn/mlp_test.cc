#include "nn/mlp.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "mat/kernels.h"
#include "util/rng.h"

namespace awmoe {
namespace {

TEST(MlpTest, ShapesThroughStack) {
  Rng rng(1);
  Mlp mlp(10, {64, 32, 1}, &rng);
  EXPECT_EQ(mlp.input_dim(), 10);
  EXPECT_EQ(mlp.output_dim(), 1);
  EXPECT_EQ(mlp.num_layers(), 3u);
  Var x(Matrix::Full(7, 10, 0.5f));
  Var y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 1);
}

TEST(MlpTest, ParameterCount) {
  Rng rng(2);
  Mlp mlp(4, {8, 2}, &rng);
  // (4*8 + 8) + (8*2 + 2) = 40 + 18.
  EXPECT_EQ(mlp.NumParameters(), 58);
}

TEST(MlpTest, HiddenReluActive) {
  Rng rng(3);
  // Single hidden layer with relu_output: all outputs must be >= 0.
  Mlp mlp(4, {8}, &rng, /*relu_output=*/true);
  Matrix x(16, 4);
  Rng data_rng(99);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.Normal());
  }
  Matrix y = mlp.Forward(Var(x)).value();
  EXPECT_GE(*std::min_element(y.data(), y.data() + y.size()), 0.0f);
}

TEST(MlpTest, LinearOutputCanBeNegative) {
  Rng rng(4);
  Mlp mlp(4, {8, 1}, &rng);
  Matrix x(64, 4);
  Rng data_rng(7);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.Normal());
  }
  Matrix y = mlp.Forward(Var(x)).value();
  EXPECT_LT(*std::min_element(y.data(), y.data() + y.size()), 0.0f);
}

TEST(MlpTest, GradFlowsToAllLayers) {
  Rng rng(5);
  Mlp mlp(3, {4, 4, 1}, &rng);
  Var x(Matrix::Full(2, 3, 0.3f));
  ag::MeanAll(mlp.Forward(x)).Backward();
  for (const Var& p : mlp.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(MlpDeathTest, EmptyDimsCheck) {
  Rng rng(6);
  EXPECT_DEATH(Mlp(4, {}, &rng), "at least one layer");
}

}  // namespace
}  // namespace awmoe
