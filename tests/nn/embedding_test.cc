#include "nn/embedding.h"

#include <gtest/gtest.h>

#include "mat/kernels.h"
#include "util/rng.h"

namespace awmoe {
namespace {

TEST(EmbeddingTest, LookupShape) {
  Rng rng(1);
  EmbeddingTable table(100, 8, &rng);
  Var out = table.Forward({3, 7, 3});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 8);
}

TEST(EmbeddingTest, SameIdSameVector) {
  Rng rng(2);
  EmbeddingTable table(10, 4, &rng);
  Matrix out = table.Forward({5, 5}).value();
  for (int64_t c = 0; c < 4; ++c) EXPECT_EQ(out(0, c), out(1, c));
}

TEST(EmbeddingTest, GradientAccumulatesOnRepeatedIds) {
  Rng rng(4);
  EmbeddingTable table(5, 2, &rng);
  Var out = table.Forward({1, 1, 2});
  ag::SumAll(out).Backward();
  const Matrix& g = table.table().grad();
  EXPECT_EQ(g(1, 0), 2.0f);  // id 1 used twice.
  EXPECT_EQ(g(2, 0), 1.0f);
  EXPECT_EQ(g(0, 0), 0.0f);  // untouched.
}

TEST(EmbeddingTest, ParametersExposed) {
  Rng rng(5);
  EmbeddingTable table(20, 3, &rng);
  EXPECT_EQ(table.NumParameters(), 60);
}

TEST(EmbeddingDeathTest, OutOfVocabChecks) {
  Rng rng(6);
  EmbeddingTable table(4, 2, &rng);
  EXPECT_DEATH(table.Forward({4}), "out of");
}

}  // namespace
}  // namespace awmoe
