// Property-based kernel tests: algebraic identities that must hold for
// every shape, swept with parameterized gtest.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "mat/kernels.h"
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

using Shape = std::tuple<int64_t, int64_t, int64_t>;  // m, k, n.

class GemmPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmPropertyTest, TransAAgreesWithExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  Matrix a = RandomMatrix(k, m, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b), 1e-4f));
}

TEST_P(GemmPropertyTest, TransBAgreesWithExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 991 + k * 97 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(n, k, &rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, b), MatMul(a, Transpose(b)), 1e-4f));
}

TEST_P(GemmPropertyTest, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 11 + n * 13);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b1 = RandomMatrix(k, n, &rng);
  Matrix b2 = RandomMatrix(k, n, &rng);
  Matrix lhs = MatMul(a, Add(b1, b2));
  Matrix rhs = Add(MatMul(a, b1), MatMul(a, b2));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-3f));
}

TEST_P(GemmPropertyTest, ScalarCommutes) {
  auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_TRUE(AllClose(MulScalar(MatMul(a, b), 2.5f),
                       MatMul(MulScalar(a, 2.5f), b), 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmPropertyTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 7, 3}, Shape{4, 1, 5},
                      Shape{8, 8, 8}, Shape{13, 5, 2}, Shape{32, 17, 9},
                      Shape{64, 24, 16}));

class RowColPropertyTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(RowColPropertyTest, SumDecompositions) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 31 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  // Total sum via rows == via cols == direct.
  EXPECT_NEAR(SumAll(RowSum(a)), SumAll(a), 1e-3);
  EXPECT_NEAR(SumAll(ColSum(a)), SumAll(a), 1e-3);
}

TEST_P(RowColPropertyTest, TransposeInvolution) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 37 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a, 0.0f));
}

TEST_P(RowColPropertyTest, ConcatSliceRoundTrip) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 41 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  Matrix b = RandomMatrix(rows, cols + 1, &rng);
  Matrix joined = ConcatCols({&a, &b});
  EXPECT_TRUE(AllClose(SliceCols(joined, 0, cols), a, 0.0f));
  EXPECT_TRUE(AllClose(SliceCols(joined, cols, cols * 2 + 1), b, 0.0f));
}

TEST_P(RowColPropertyTest, SoftmaxRowsIsInvariantToRowShift) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 43 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  Matrix shifted = AddScalar(a, 42.0f);
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(shifted), 1e-5f));
}

TEST_P(RowColPropertyTest, LogSumExpIsMaxPlusNonneg) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 47 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  Matrix lse = LogSumExpRows(a);
  for (int64_t r = 0; r < rows; ++r) {
    float row_max = a(r, 0);
    for (int64_t c = 1; c < cols; ++c) row_max = std::max(row_max, a(r, c));
    EXPECT_GE(lse(r, 0), row_max - 1e-5f);
    EXPECT_LE(lse(r, 0), row_max + std::log(static_cast<float>(cols)) + 1e-5f);
  }
}

TEST_P(RowColPropertyTest, BroadcastIdentities) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 53 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  // Multiplying rows by ones changes nothing.
  Matrix ones_col = Matrix::Full(rows, 1, 1.0f);
  EXPECT_TRUE(AllClose(MulColBroadcast(a, ones_col), a, 0.0f));
  // Adding a zero row changes nothing.
  Matrix zeros_row(1, cols);
  EXPECT_TRUE(AllClose(AddRowBroadcast(a, zeros_row), a, 0.0f));
}

TEST_P(RowColPropertyTest, DotRowsMatchesMulThenRowSum) {
  auto [rows, cols] = GetParam();
  Rng rng(rows * 59 + cols);
  Matrix a = RandomMatrix(rows, cols, &rng);
  Matrix b = RandomMatrix(rows, cols, &rng);
  EXPECT_TRUE(AllClose(DotRows(a, b), RowSum(Mul(a, b)), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, RowColPropertyTest,
                         ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                                           std::pair<int64_t, int64_t>{1, 9},
                                           std::pair<int64_t, int64_t>{6, 1},
                                           std::pair<int64_t, int64_t>{5, 5},
                                           std::pair<int64_t, int64_t>{17, 3},
                                           std::pair<int64_t, int64_t>{32,
                                                                       16}));

}  // namespace
}  // namespace awmoe
