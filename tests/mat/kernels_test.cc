#include "mat/kernels.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace awmoe {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal());
  }
  return m;
}

TEST(KernelsTest, MatMulSmallKnown) {
  Matrix a = Matrix::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 58.0f);
  EXPECT_EQ(c(0, 1), 64.0f);
  EXPECT_EQ(c(1, 0), 139.0f);
  EXPECT_EQ(c(1, 1), 154.0f);
}

TEST(KernelsTest, MatMulIdentity) {
  Rng rng(1);
  Matrix a = RandomMatrix(4, 4, &rng);
  Matrix eye(4, 4);
  for (int i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, eye), a, 1e-6f));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a, 1e-6f));
}

TEST(KernelsTest, MatMulTransVariantsAgreeWithExplicitTranspose) {
  Rng rng(2);
  Matrix a = RandomMatrix(5, 3, &rng);
  Matrix b = RandomMatrix(5, 4, &rng);
  // A^T B.
  EXPECT_TRUE(
      AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-4f));
  Matrix c = RandomMatrix(6, 3, &rng);
  Matrix d = RandomMatrix(7, 3, &rng);
  // C D^T.
  EXPECT_TRUE(
      AllClose(MatMulTransB(c, d), MatMul(c, Transpose(d)), 1e-4f));
}

TEST(KernelsTest, TransposeInvolution) {
  Rng rng(3);
  Matrix a = RandomMatrix(3, 7, &rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a, 0.0f));
}

TEST(KernelsTest, ElementwiseOps) {
  Matrix a = Matrix::FromVector(1, 4, {1, 2, 3, 4});
  Matrix b = Matrix::FromVector(1, 4, {4, 3, 2, 1});
  EXPECT_TRUE(AllClose(Add(a, b), Matrix::Full(1, 4, 5.0f), 0.0f));
  EXPECT_TRUE(AllClose(Sub(a, b),
                       Matrix::FromVector(1, 4, {-3, -1, 1, 3}), 0.0f));
  EXPECT_TRUE(AllClose(Mul(a, b),
                       Matrix::FromVector(1, 4, {4, 6, 6, 4}), 0.0f));
}

TEST(KernelsTest, InPlaceOps) {
  Matrix a = Matrix::Full(2, 2, 1.0f);
  AddInPlace(&a, Matrix::Full(2, 2, 2.0f));
  EXPECT_EQ(a(0, 0), 3.0f);
  ScaleInPlace(&a, 2.0f);
  EXPECT_EQ(a(0, 1), 6.0f);
}

TEST(KernelsTest, ScalarOps) {
  Matrix a = Matrix::FromVector(1, 3, {1, -2, 3});
  EXPECT_TRUE(AllClose(AddScalar(a, 1.0f),
                       Matrix::FromVector(1, 3, {2, -1, 4}), 0.0f));
  EXPECT_TRUE(AllClose(MulScalar(a, -2.0f),
                       Matrix::FromVector(1, 3, {-2, 4, -6}), 0.0f));
}

TEST(KernelsTest, ReluAndBackward) {
  Matrix a = Matrix::FromVector(1, 4, {-1, 0, 2, -3});
  EXPECT_TRUE(AllClose(Relu(a), Matrix::FromVector(1, 4, {0, 0, 2, 0}), 0.0f));
  Matrix g = Matrix::Full(1, 4, 1.0f);
  ReluBackwardInPlace(&g, a);
  EXPECT_TRUE(AllClose(g, Matrix::FromVector(1, 4, {0, 0, 1, 0}), 0.0f));
}

TEST(KernelsTest, SigmoidValuesAndStability) {
  Matrix a = Matrix::FromVector(1, 3, {0.0f, 100.0f, -100.0f});
  Matrix s = Sigmoid(a);
  EXPECT_NEAR(s(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(s(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(s(0, 2), 0.0f, 1e-6f);
  EXPECT_TRUE(std::isfinite(s(0, 1)));
  EXPECT_TRUE(std::isfinite(s(0, 2)));
}

TEST(KernelsTest, AddRowBroadcast) {
  Matrix a = Matrix::FromVector(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::RowVector({10, 20});
  Matrix c = AddRowBroadcast(a, b);
  EXPECT_TRUE(AllClose(c, Matrix::FromVector(2, 2, {11, 22, 13, 24}), 0.0f));
}

TEST(KernelsTest, MulColBroadcast) {
  Matrix a = Matrix::FromVector(2, 3, {1, 1, 1, 2, 2, 2});
  Matrix w = Matrix::ColVector({3, 0.5f});
  Matrix c = MulColBroadcast(a, w);
  EXPECT_TRUE(AllClose(c, Matrix::FromVector(2, 3, {3, 3, 3, 1, 1, 1}), 0.0f));
}

TEST(KernelsTest, BroadcastCol) {
  Matrix col = Matrix::ColVector({1, 2});
  Matrix out = BroadcastCol(col, 3);
  EXPECT_TRUE(AllClose(out, Matrix::FromVector(2, 3, {1, 1, 1, 2, 2, 2}),
                       0.0f));
}

TEST(KernelsTest, Reductions) {
  Matrix a = Matrix::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(ColSum(a), Matrix::RowVector({5, 7, 9}), 0.0f));
  EXPECT_TRUE(AllClose(RowSum(a), Matrix::ColVector({6, 15}), 0.0f));
  EXPECT_DOUBLE_EQ(SumAll(a), 21.0);
  EXPECT_DOUBLE_EQ(MeanAll(a), 3.5);
}

TEST(KernelsTest, NormMatchesHandComputation) {
  Matrix a = Matrix::FromVector(1, 2, {3, 4});
  EXPECT_NEAR(Norm(a), 5.0, 1e-9);
}

TEST(KernelsTest, DotRows) {
  Matrix a = Matrix::FromVector(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::FromVector(2, 2, {5, 6, 7, 8});
  EXPECT_TRUE(AllClose(DotRows(a, b), Matrix::ColVector({17, 53}), 0.0f));
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Rng rng(4);
  Matrix a = RandomMatrix(5, 7, &rng);
  Matrix s = SoftmaxRows(a);
  for (int64_t r = 0; r < s.rows(); ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < s.cols(); ++c) {
      EXPECT_GT(s(r, c), 0.0f);
      total += s(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(KernelsTest, SoftmaxShiftInvariant) {
  Matrix a = Matrix::FromVector(1, 3, {1, 2, 3});
  Matrix b = AddScalar(a, 100.0f);
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(b), 1e-5f));
}

TEST(KernelsTest, SoftmaxStableForLargeInputs) {
  Matrix a = Matrix::FromVector(1, 2, {1000.0f, 999.0f});
  Matrix s = SoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(s(0, 0)));
  EXPECT_NEAR(s(0, 0) + s(0, 1), 1.0f, 1e-5f);
}

TEST(KernelsTest, LogSumExpMatchesNaive) {
  Matrix a = Matrix::FromVector(2, 2, {0.1f, 0.2f, -1.0f, 2.0f});
  Matrix lse = LogSumExpRows(a);
  for (int64_t r = 0; r < 2; ++r) {
    float naive = std::log(std::exp(a(r, 0)) + std::exp(a(r, 1)));
    EXPECT_NEAR(lse(r, 0), naive, 1e-5f);
  }
}

TEST(KernelsTest, GatherScatterRoundTrip) {
  Matrix table = Matrix::FromVector(3, 2, {1, 2, 3, 4, 5, 6});
  std::vector<int64_t> idx = {2, 0, 2};
  Matrix gathered = GatherRows(table, idx);
  EXPECT_TRUE(AllClose(gathered,
                       Matrix::FromVector(3, 2, {5, 6, 1, 2, 5, 6}), 0.0f));

  Matrix target(3, 2);
  ScatterAddRows(&target, idx, gathered);
  // Row 2 accumulated twice.
  EXPECT_TRUE(AllClose(target,
                       Matrix::FromVector(3, 2, {1, 2, 0, 0, 10, 12}), 0.0f));
}

TEST(KernelsTest, ConcatAndSliceCols) {
  Matrix a = Matrix::FromVector(2, 1, {1, 2});
  Matrix b = Matrix::FromVector(2, 2, {3, 4, 5, 6});
  Matrix c = ConcatCols({&a, &b});
  EXPECT_TRUE(AllClose(c, Matrix::FromVector(2, 3, {1, 3, 4, 2, 5, 6}), 0.0f));
  EXPECT_TRUE(AllClose(SliceCols(c, 0, 1), a, 0.0f));
  EXPECT_TRUE(AllClose(SliceCols(c, 1, 3), b, 0.0f));
}

TEST(KernelsTest, TopKMaskSelectsLargest) {
  Matrix a = Matrix::FromVector(2, 4, {0.1f, 0.9f, 0.5f, 0.3f,
                                       4.0f, 3.0f, 2.0f, 1.0f});
  Matrix mask = TopKMaskRows(a, 2);
  EXPECT_TRUE(AllClose(mask, Matrix::FromVector(2, 4, {0, 1, 1, 0,
                                                       1, 1, 0, 0}), 0.0f));
}

TEST(KernelsTest, TopKMaskFullKeepsAll) {
  Matrix a = Matrix::FromVector(1, 3, {1, 2, 3});
  EXPECT_TRUE(AllClose(TopKMaskRows(a, 3), Matrix::Full(1, 3, 1.0f), 0.0f));
}

TEST(KernelsDeathTest, ShapeMismatchChecks) {
  Matrix a(2, 3), b(3, 3);
  EXPECT_DEATH(Add(a, b), "shape mismatch");
  EXPECT_DEATH(MatMul(a, Matrix(2, 2)), "MatMul");
}

}  // namespace
}  // namespace awmoe
