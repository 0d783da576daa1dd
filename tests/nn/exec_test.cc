// The behaviour-stack ops of nn/exec.h: the blocked Gather and Constant,
// ProductPath with a per-example reference repeated over row blocks, and
// the masked Pool. Each must produce the same floats on GraphExec and
// ArenaExec, at both kernel tiers, and the stack must equal one [B]-row
// pass per position bit for bit.

#include "nn/exec.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/attention_unit.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

constexpr int64_t kBatch = 3;
constexpr int64_t kPositions = 4;

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal());
  }
  return m;
}

/// A [kBatch, kPositions] behaviour mask with padding in every pattern:
/// a full row, a partly padded row and an all-padding row.
Matrix Mask() {
  return Matrix::FromVector(kBatch, kPositions,
                            {1.0f, 1.0f, 1.0f, 1.0f,    //
                             1.0f, 0.0f, 1.0f, 0.0f,    //
                             0.0f, 0.0f, 0.0f, 0.0f});
}

/// Copies a view into a Matrix for comparison.
Matrix ToMatrix(const ConstMatView& v) {
  Matrix m(v.rows, v.cols);
  CopyInto(v, MutableMatrixView(m));
  return m;
}

/// Rows [begin, begin + count) of a matrix.
ConstMatView Rows(const Matrix& m, int64_t begin, int64_t count) {
  return ConstMatView(m.data() + begin * m.cols(), count, m.cols(), m.cols());
}

void ExpectBitwise(const Matrix& want, const ConstMatView& got,
                   const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows) << what;
  ASSERT_EQ(want.cols(), got.cols) << what;
  for (int64_t r = 0; r < got.rows; ++r) {
    for (int64_t c = 0; c < got.cols; ++c) {
      EXPECT_EQ(want(r, c), got.row(r)[c])
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

/// Pins the kernel tier for one test instance.
class ExecTest : public ::testing::TestWithParam<KernelTier> {
 protected:
  void SetUp() override {
    if (GetParam() == KernelTier::kFast && !FastKernelTierAvailable()) {
      GTEST_SKIP() << "fast kernel tier not available on this host";
    }
    tier_ = std::make_unique<ScopedKernelTier>(GetParam());
  }

  std::unique_ptr<ScopedKernelTier> tier_;
  InferenceArena arena_;
};

TEST_P(ExecTest, BlockedGatherStacksPositionsPositionMajor) {
  Rng rng(1);
  const EmbeddingTable table(20, 5, &rng);
  // Row-major [kBatch, kPositions] ids, as a Batch lays them out.
  std::vector<int64_t> ids(static_cast<size_t>(kBatch * kPositions));
  for (int64_t& id : ids) id = rng.UniformInt(0, 19);

  const Var graph = GraphExec().Gather(table, ids.data(), kBatch, kPositions,
                                       {}, kPositions);
  const ArenaExec x(&arena_);
  const MatView arena = x.Gather(table, ids.data(), kBatch, kPositions,
                                 x.Alloc(kPositions * kBatch, 5), kPositions);
  ExpectBitwise(graph.value(), arena, "graph vs arena");
  // Row j*B + r is position j of example r.
  for (int64_t j = 0; j < kPositions; ++j) {
    for (int64_t r = 0; r < kBatch; ++r) {
      const int64_t id = ids[static_cast<size_t>(r * kPositions + j)];
      for (int64_t c = 0; c < 5; ++c) {
        EXPECT_EQ(graph.value()(j * kBatch + r, c),
                  table.table().value()(id, c));
      }
    }
  }
}

TEST_P(ExecTest, BlockedConstantStacksColumnBlocksAsRowBlocks) {
  Rng rng(2);
  const Matrix value = RandomMatrix(kBatch, kPositions * 2, &rng);
  const ArenaExec x(&arena_);
  for (const int64_t stride : {value.cols(), int64_t{0}}) {
    // stride 0: one broadcast row, as a cached session encoding arrives.
    const ConstMatView view(value.data(), kBatch, value.cols(), stride);
    const std::string what = "stride " + std::to_string(stride);
    const Var graph = GraphExec().Constant(view, {}, kPositions);
    const MatView arena =
        x.Constant(view, x.Alloc(kPositions * kBatch, 2), kPositions);
    ExpectBitwise(graph.value(), arena, what);
    for (int64_t j = 0; j < kPositions; ++j) {
      ExpectBitwise(ToMatrix(view.ColBlock(j * 2, 2)),
                    arena.RowBlock(j * kBatch, kBatch), what);
    }
  }
}

TEST_P(ExecTest, ProductPathRepeatsTheReferenceOverRowBlocks) {
  Rng rng(3);
  const Matrix a = RandomMatrix(kPositions * kBatch, 5, &rng);
  const Matrix b = RandomMatrix(kBatch, 5, &rng);
  const Var graph = GraphExec().ProductPath(Var(a), Var(b), {});
  const ArenaExec x(&arena_);
  const MatView a_view = x.Constant(MatrixView(a), x.Alloc(a.rows(), 5));
  const MatView b_view = x.Constant(MatrixView(b), x.Alloc(kBatch, 5));
  const MatView arena =
      x.ProductPath(a_view, b_view, x.Alloc(a.rows(), 15));
  ExpectBitwise(graph.value(), arena, "graph vs arena");
  for (int64_t j = 0; j < kPositions; ++j) {
    // One position alone: [a_j | b | a_j * b].
    const Var block = GraphExec().ProductPath(
        Var(ToMatrix(Rows(a, j * kBatch, kBatch))), Var(b), {});
    ExpectBitwise(block.value(), arena.RowBlock(j * kBatch, kBatch),
                  "position " + std::to_string(j));
  }
}

TEST_P(ExecTest, PoolWeightedAndMaskOnly) {
  Rng rng(4);
  const Matrix rows = RandomMatrix(kPositions * kBatch, 6, &rng);
  const Matrix w = RandomMatrix(kPositions * kBatch, 1, &rng);
  const Matrix mask = Mask();
  const ArenaExec x(&arena_);
  const MatView rows_view =
      x.Constant(MatrixView(rows), x.Alloc(rows.rows(), rows.cols()));
  const MatView w_view = x.Constant(MatrixView(w), x.Alloc(w.rows(), 1));
  for (const bool weighted : {true, false}) {
    const std::string what = weighted ? "weighted" : "mask only";
    const Var w_var(w);
    const Var graph = GraphExec().Pool(Var(rows), weighted ? &w_var : nullptr,
                                       MatrixView(mask), {});
    const MatView arena =
        x.Pool(rows_view, weighted ? &w_view : nullptr, MatrixView(mask),
               x.Alloc(kBatch, rows.cols()));
    ExpectBitwise(graph.value(), arena, what);
    // The per-position arithmetic, positions added in order.
    Matrix want(kBatch, rows.cols());
    for (int64_t j = 0; j < kPositions; ++j) {
      for (int64_t r = 0; r < kBatch; ++r) {
        const int64_t s = j * kBatch + r;
        const float scale = weighted ? w(s, 0) * mask(r, j) : mask(r, j);
        for (int64_t c = 0; c < rows.cols(); ++c) {
          const float term = rows(s, c) * scale;
          want(r, c) = j == 0 ? term : want(r, c) + term;
        }
      }
    }
    ExpectBitwise(want, arena, what + " vs per-position loop");
  }
}

// A unit run once over the stack equals the unit run once per
// position: per-row GEMM arithmetic does not depend on the row count,
// at either tier.
TEST_P(ExecTest, StackedUnitEqualsOnePassPerPosition) {
  Rng rng(5);
  const AttentionUnit unit(5, {6, 4}, 3, &rng);
  const Matrix h_b = RandomMatrix(kPositions * kBatch, 5, &rng);
  const Matrix h_ref = RandomMatrix(kBatch, 5, &rng);
  const Var graph = unit.Forward(Var(h_b), Var(h_ref));
  const ArenaExec x(&arena_);
  const MatView h_b_view = x.Constant(MatrixView(h_b), x.Alloc(h_b.rows(), 5));
  const MatView h_ref_view = x.Constant(MatrixView(h_ref), x.Alloc(kBatch, 5));
  const MatView arena =
      unit.Run(x, h_b_view, h_ref_view, x.Alloc(h_b.rows(), 3));
  ExpectBitwise(graph.value(), arena, "graph vs arena");
  for (int64_t j = 0; j < kPositions; ++j) {
    const Var alone =
        unit.Forward(Var(ToMatrix(Rows(h_b, j * kBatch, kBatch))), Var(h_ref));
    ExpectBitwise(alone.value(), arena.RowBlock(j * kBatch, kBatch),
                  "position " + std::to_string(j));
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, ExecTest,
                         ::testing::Values(KernelTier::kReference,
                                           KernelTier::kFast),
                         [](const ::testing::TestParamInfo<KernelTier>& info) {
                           return info.param == KernelTier::kReference
                                      ? "Reference"
                                      : "Fast";
                         });

}  // namespace
}  // namespace awmoe
