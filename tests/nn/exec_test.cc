// The behaviour-stack ops of nn/exec.h over a row list: BehaviorRows,
// the listed Gather and Constant, ProductPath pairing each row with its
// example's reference, and Pool. Each must produce the same floats on
// GraphExec and ArenaExec, at both kernel tiers, and a listed row must
// equal the same row computed alone or in the all-positions stack, bit
// for bit.

#include "nn/exec.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/attention_unit.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

constexpr int64_t kBatch = 4;
constexpr int64_t kPositions = 4;

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal());
  }
  return m;
}

/// A [kBatch, kPositions] behaviour mask with padding in every pattern:
/// a full row, a row with contrastive-mask holes, a row with no valid
/// position, and a row whose position 0 is a hole.
Matrix Mask() {
  return Matrix::FromVector(kBatch, kPositions,
                            {1.0f, 1.0f, 1.0f, 1.0f,    //
                             1.0f, 0.0f, 1.0f, 0.0f,    //
                             0.0f, 0.0f, 0.0f, 0.0f,    //
                             0.0f, 1.0f, 1.0f, 0.0f});
}

/// The (position, example, first) triples Mask() lists.
std::vector<StackRow> MaskRows() {
  return {{0, 0, true},  {0, 1, true},  {1, 0, false}, {1, 3, true},
          {2, 0, false}, {2, 1, false}, {2, 3, false}, {3, 0, false}};
}

/// Copies a view into a Matrix for comparison.
Matrix ToMatrix(const ConstMatView& v) {
  Matrix m(v.rows, v.cols);
  CopyInto(v, MutableMatrixView(m));
  return m;
}

/// Bitwise, so -0 and +0 differ.
void ExpectBitwise(const Matrix& want, const ConstMatView& got,
                   const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows) << what;
  ASSERT_EQ(want.cols(), got.cols) << what;
  for (int64_t r = 0; r < got.rows; ++r) {
    ASSERT_EQ(std::memcmp(want.row(r), got.row(r), got.cols * sizeof(float)),
              0)
        << what << " at row " << r;
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

TEST_P(ExecTest, BehaviorRowsListRealPositionsPositionMajor) {
  const Matrix mask = Mask();
  const GraphExec::RowList list = GraphExec().BehaviorRows(MatrixView(mask));
  const StackRows graph = list;
  const StackRows arena = ArenaExec(&arena_).BehaviorRows(MatrixView(mask));
  const std::vector<StackRow> want = MaskRows();
  for (const StackRows& rows : {graph, arena}) {
    EXPECT_EQ(rows.batch, kBatch);
    EXPECT_EQ(rows.seq_len, kPositions);
    ASSERT_EQ(rows.size(), static_cast<int64_t>(want.size()));
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rows.rows[i].position, want[i].position) << i;
      EXPECT_EQ(rows.rows[i].example, want[i].example) << i;
      EXPECT_EQ(rows.rows[i].first, want[i].first) << i;
    }
  }
}

TEST_P(ExecTest, ListedGatherReadsTheBatchIdLayout) {
  Rng rng(1);
  const EmbeddingTable table(20, 5, &rng);
  // Row-major [kBatch, kPositions] ids, as a Batch lays them out.
  std::vector<int64_t> ids(static_cast<size_t>(kBatch * kPositions));
  for (int64_t& id : ids) id = rng.UniformInt(0, 19);
  const Matrix mask = Mask();
  const GraphExec::RowList list = GraphExec().BehaviorRows(MatrixView(mask));
  const StackRows rows = list;

  const Var graph = GraphExec().Gather(table, ids.data(), rows, {});
  const ArenaExec x(&arena_);
  const MatView arena =
      x.Gather(table, ids.data(), rows, x.Alloc(rows.size(), 5));
  ExpectBitwise(graph.value(), arena, "graph vs arena");
  for (int64_t i = 0; i < rows.size(); ++i) {
    const StackRow& s = rows.rows[i];
    const int64_t id = ids[static_cast<size_t>(s.example * kPositions +
                                               s.position)];
    ExpectBitwise(ToMatrix(MatrixView(table.table().value()).RowBlock(id, 1)),
                  arena.RowBlock(i, 1), "row " + std::to_string(i));
  }
}

TEST_P(ExecTest, ListedConstantReadsColumnBlocksIncludingABroadcastBlob) {
  Rng rng(2);
  const Matrix value = RandomMatrix(kBatch, kPositions * 2, &rng);
  const Matrix mask = Mask();
  const ArenaExec x(&arena_);
  const StackRows rows = x.BehaviorRows(MatrixView(mask));
  for (const int64_t stride : {value.cols(), int64_t{0}}) {
    // stride 0: one broadcast row, as a cached session encoding arrives.
    const ConstMatView view(value.data(), kBatch, value.cols(), stride);
    const std::string what = "stride " + std::to_string(stride);
    const Var graph = GraphExec().Constant(view, rows, {});
    const MatView arena = x.Constant(view, rows, x.Alloc(rows.size(), 2));
    ExpectBitwise(graph.value(), arena, what);
    for (int64_t i = 0; i < rows.size(); ++i) {
      const StackRow& s = rows.rows[i];
      ExpectBitwise(
          ToMatrix(view.RowBlock(s.example, 1).ColBlock(s.position * 2, 2)),
          arena.RowBlock(i, 1), what + " row " + std::to_string(i));
    }
  }
}

TEST_P(ExecTest, ProductPathPairsEachRowWithItsExamplesReference) {
  Rng rng(3);
  const Matrix mask = Mask();
  const ArenaExec x(&arena_);
  const StackRows rows = x.BehaviorRows(MatrixView(mask));
  const Matrix a = RandomMatrix(rows.size(), 5, &rng);
  const Matrix b = RandomMatrix(kBatch, 5, &rng);
  const Var graph = GraphExec().ProductPath(Var(a), Var(b), rows, {});
  const MatView a_view = x.Constant(MatrixView(a), x.Alloc(a.rows(), 5));
  const MatView b_view = x.Constant(MatrixView(b), x.Alloc(kBatch, 5));
  const MatView arena =
      x.ProductPath(a_view, b_view, rows, x.Alloc(a.rows(), 15));
  ExpectBitwise(graph.value(), arena, "graph vs arena");
  for (int64_t i = 0; i < rows.size(); ++i) {
    // One row alone: [a_i | b_r | a_i * b_r].
    const Var alone = GraphExec().ProductPath(
        Var(ToMatrix(MatrixView(a).RowBlock(i, 1))),
        Var(ToMatrix(MatrixView(b).RowBlock(rows.rows[i].example, 1))), {});
    ExpectBitwise(alone.value(), arena.RowBlock(i, 1),
                  "row " + std::to_string(i));
  }
}

TEST_P(ExecTest, PoolWeightedAndUnweighted) {
  Rng rng(4);
  const Matrix mask = Mask();
  const ArenaExec x(&arena_);
  const StackRows rows = x.BehaviorRows(MatrixView(mask));
  Matrix stack = RandomMatrix(rows.size(), 6, &rng);
  // Example 1's rows (1 and 5) carry -0 in column 0: pooled unweighted
  // they stay -0, since the first is copied rather than added to +0.
  stack(1, 0) = -0.0f;
  stack(5, 0) = -0.0f;
  const Matrix w = RandomMatrix(rows.size(), 1, &rng);
  const MatView stack_view =
      x.Constant(MatrixView(stack), x.Alloc(stack.rows(), stack.cols()));
  const MatView w_view = x.Constant(MatrixView(w), x.Alloc(w.rows(), 1));
  for (const bool weighted : {true, false}) {
    const std::string what = weighted ? "weighted" : "unweighted";
    const Var w_var(w);
    const Var graph = GraphExec().Pool(
        Var(stack), weighted ? &w_var : nullptr, rows, {});
    const MatView arena =
        x.Pool(stack_view, weighted ? &w_view : nullptr, rows,
               x.Alloc(kBatch, stack.cols()));
    ExpectBitwise(graph.value(), arena, what);
    // The per-row arithmetic, positions added in order, the first
    // copied; example 2 has no row and pools to +0.
    Matrix want(kBatch, stack.cols());
    for (int64_t i = 0; i < rows.size(); ++i) {
      const StackRow& s = rows.rows[i];
      for (int64_t c = 0; c < stack.cols(); ++c) {
        const float term = weighted ? stack(i, c) * w(i, 0) : stack(i, c);
        want(s.example, c) = s.first ? term : want(s.example, c) + term;
      }
    }
    ExpectBitwise(want, arena, what + " vs per-row loop");
    if (!weighted) {
      EXPECT_TRUE(std::signbit(arena.row(1)[0]));
    }
  }
}

TEST_P(ExecTest, BatchWithNoValidPositionPoolsToPositiveZero) {
  const Matrix mask(kBatch, kPositions);
  const ArenaExec x(&arena_);
  const StackRows rows = x.BehaviorRows(MatrixView(mask));
  ASSERT_EQ(rows.size(), 0);
  Rng rng(6);
  const AttentionUnit unit(5, {6, 4}, 1, &rng);
  const Matrix h_ref = RandomMatrix(kBatch, 5, &rng);
  // The graph: a 0-row stack through a unit and the pool.
  const Var h_b(Matrix(0, 5), /*requires_grad=*/true);
  const Var w = unit.Run(GraphExec(), h_b, Var(h_ref), &rows, {});
  const Var graph = GraphExec().Pool(h_b, &w, rows, {});
  // The arena, into a buffer holding garbage.
  const MatView h_b_view = x.Alloc(0, 5);
  const MatView h_ref_view = x.Constant(MatrixView(h_ref), x.Alloc(kBatch, 5));
  const MatView w_view =
      unit.Run(x, h_b_view, h_ref_view, &rows, x.Alloc(0, 1));
  const MatView out = x.Alloc(kBatch, 5);
  for (int64_t r = 0; r < kBatch; ++r) std::fill_n(out.row(r), 5, -1.0f);
  const MatView arena = x.Pool(h_b_view, &w_view, rows, out);
  const Matrix zeros(kBatch, 5);
  ExpectBitwise(zeros, MatrixView(graph.value()), "graph");
  ExpectBitwise(zeros, arena, "arena");
}

// A unit run once over the listed stack equals the unit run once per
// row, and the same rows of the all-positions stack: per-row GEMM
// arithmetic does not depend on the row count, at either tier.
TEST_P(ExecTest, ListedUnitEqualsOnePassPerRowAndTheFullStack) {
  Rng rng(5);
  const AttentionUnit unit(5, {6, 4}, 3, &rng);
  const Matrix mask = Mask();
  const ArenaExec x(&arena_);
  const StackRows rows = x.BehaviorRows(MatrixView(mask));
  const Matrix every = Matrix::Full(kBatch, kPositions, 1.0f);
  const StackRows all = x.BehaviorRows(MatrixView(every));
  // Per-position hiddens as a [B, L*5] blob, so both stacks read the
  // same values.
  const Matrix blob = RandomMatrix(kBatch, kPositions * 5, &rng);
  const Matrix h_ref = RandomMatrix(kBatch, 5, &rng);
  const MatView h_ref_view = x.Constant(MatrixView(h_ref), x.Alloc(kBatch, 5));
  const MatView h_b =
      x.Constant(MatrixView(blob), rows, x.Alloc(rows.size(), 5));
  const MatView h_all =
      x.Constant(MatrixView(blob), all, x.Alloc(all.size(), 5));
  const MatView arena = unit.Run(x, h_b, h_ref_view, &rows,
                                 x.Alloc(rows.size(), 3));
  const MatView full = unit.Run(x, h_all, h_ref_view, &all,
                                x.Alloc(all.size(), 3));
  const Var graph =
      unit.Run(GraphExec(), Var(ToMatrix(h_b)), Var(h_ref), &rows, {});
  ExpectBitwise(graph.value(), arena, "graph vs arena");
  for (int64_t i = 0; i < rows.size(); ++i) {
    const StackRow& s = rows.rows[i];
    const Var alone = unit.Forward(
        Var(ToMatrix(h_b.RowBlock(i, 1))),
        Var(ToMatrix(MatrixView(h_ref).RowBlock(s.example, 1))));
    const std::string what = "row " + std::to_string(i);
    ExpectBitwise(alone.value(), arena.RowBlock(i, 1), what);
    ExpectBitwise(ToMatrix(full.RowBlock(s.position * kBatch + s.example, 1)),
                  arena.RowBlock(i, 1), what + " vs full stack");
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
