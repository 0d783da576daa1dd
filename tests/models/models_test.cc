#include <gtest/gtest.h>

#include <memory>
#include <typeinfo>
#include <vector>

#include "autograd/ops.h"
#include "core/aw_moe.h"
#include "data/batcher.h"
#include "mat/kernels.h"
#include "models/attention_unit.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "models/embedding_set.h"
#include "models/expert.h"
#include "models/input_network.h"
#include "util/rng.h"

namespace awmoe {
namespace {

DatasetMeta TestMeta(bool recommendation = false) {
  DatasetMeta meta;
  meta.num_items = 50;
  meta.num_cats = 6;
  meta.num_brands = 20;
  meta.num_shops = 10;
  meta.num_queries = 12;
  meta.max_seq_len = 4;
  meta.recommendation_mode = recommendation;
  return meta;
}

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  dims.num_experts = 3;
  return dims;
}

Example MakeExample(int64_t seed_id, int64_t history_len) {
  Example ex;
  Rng rng(static_cast<uint64_t>(seed_id) + 1000);
  for (int64_t j = 0; j < history_len; ++j) {
    ex.behavior_items.push_back(rng.UniformInt(1, 50));
    ex.behavior_cats.push_back(rng.UniformInt(1, 6));
    ex.behavior_brands.push_back(rng.UniformInt(1, 20));
  }
  ex.target_item = rng.UniformInt(1, 50);
  ex.target_cat = rng.UniformInt(1, 6);
  ex.target_brand = rng.UniformInt(1, 20);
  ex.target_shop = rng.UniformInt(1, 10);
  ex.query_id = rng.UniformInt(1, 12);
  ex.query_cat = ex.target_cat;
  ex.user_id = seed_id;
  ex.session_id = seed_id;
  ex.age_segment = rng.UniformInt(0, 3);
  ex.label = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  ex.numeric.assign(kNumNumericFeatures, 0.1f);
  return ex;
}

Batch MakeBatch(const DatasetMeta& meta, int64_t size,
                int64_t min_history = 0) {
  static std::vector<Example> storage;
  storage.clear();
  for (int64_t i = 0; i < size; ++i) {
    storage.push_back(MakeExample(i, min_history + (i % 3)));
  }
  std::vector<const Example*> ptrs;
  for (const Example& ex : storage) ptrs.push_back(&ex);
  return CollateBatch(ptrs, meta, nullptr);
}

TEST(EmbeddingSetTest, TargetInputShape) {
  Rng rng(1);
  const DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  Var input = set.TargetInput(GraphExec(), MakeBatch(meta, 2));
  EXPECT_EQ(input.rows(), 2);
  EXPECT_EQ(input.cols(), 12 + Example::kItemAttrs);
  EXPECT_EQ(set.item_dim(), 12);
}

TEST(EmbeddingSetTest, SharedAcrossCalls) {
  Rng rng(2);
  const DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  const Batch batch = MakeBatch(meta, 1);
  Matrix a = set.QueryInput(GraphExec(), batch).value();
  Matrix b = set.QueryInput(GraphExec(), batch).value();
  EXPECT_TRUE(AllClose(a, b, 0.0f));
}

TEST(AttentionUnitTest, ScalarScorePerRow) {
  Rng rng(3);
  AttentionUnit unit(6, {4, 3}, /*out_dim=*/1, &rng);
  Var h_user(Matrix::Full(5, 6, 0.2f));
  Var h_ref(Matrix::Full(5, 6, -0.1f));
  Var score = unit.Forward(h_user, h_ref);
  EXPECT_EQ(score.rows(), 5);
  EXPECT_EQ(score.cols(), 1);
}

TEST(AttentionUnitTest, DependsOnBothInputs) {
  Rng rng(4);
  AttentionUnit unit(4, {4}, /*out_dim=*/1, &rng);
  Rng data(5);
  Matrix u(1, 4), r1(1, 4), r2(1, 4);
  for (int64_t i = 0; i < 4; ++i) {
    u.data()[i] = static_cast<float>(data.Normal());
    r1.data()[i] = static_cast<float>(data.Normal());
    r2.data()[i] = static_cast<float>(data.Normal());
  }
  float s1 = unit.Forward(Var(u), Var(r1)).value()(0, 0);
  float s2 = unit.Forward(Var(u), Var(r2)).value()(0, 0);
  EXPECT_NE(s1, s2);
}

TEST(InputNetworkTest, OutputDimSearchMode) {
  Rng rng(6);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  InputNetwork net(meta, TinyDims(), &set, UserPooling::kAttention, &rng);
  EXPECT_EQ(net.output_dim(), 4 * 6);  // 4 parts x hidden 6.
  Batch batch = MakeBatch(meta, 3);
  Var v_imp = net.Forward(batch);
  EXPECT_EQ(v_imp.rows(), 3);
  EXPECT_EQ(v_imp.cols(), net.output_dim());
}

TEST(InputNetworkTest, OutputDimRecommendationMode) {
  Rng rng(7);
  DatasetMeta meta = TestMeta(/*recommendation=*/true);
  EmbeddingSet set(meta, 4, &rng);
  InputNetwork net(meta, TinyDims(), &set, UserPooling::kAttention, &rng);
  EXPECT_EQ(net.output_dim(), 3 * 6);  // Query tower dropped.
  Batch batch = MakeBatch(meta, 2);
  EXPECT_EQ(net.Forward(batch).cols(), 3 * 6);
}

TEST(InputNetworkTest, EmptyHistoryGivesZeroUserVector) {
  Rng rng(8);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  InputNetwork net(meta, TinyDims(), &set, UserPooling::kAttention, &rng);
  Batch batch = MakeBatch(meta, 1, /*min_history=*/0);  // history 0.
  Var v_imp = net.Forward(batch);
  // First hidden_dim cols are the user vector: all zero for empty history.
  Matrix user_part = SliceCols(v_imp.value(), 0, 6);
  EXPECT_TRUE(AllClose(user_part, Matrix(1, 6), 0.0f));
}

TEST(InputNetworkTest, PaddingMaskingInvariance) {
  // Changing ids at masked (padded) positions must not change the output.
  Rng rng(9);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  InputNetwork net(meta, TinyDims(), &set, UserPooling::kAttention, &rng);
  Batch batch = MakeBatch(meta, 2, /*min_history=*/1);
  Matrix before = net.Forward(batch).value();
  // Poison padded slots.
  for (int64_t i = 0; i < batch.size; ++i) {
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      if (batch.behavior_mask(i, j) == 0.0f) {
        batch.behavior_items[static_cast<size_t>(i * batch.seq_len + j)] = 7;
        batch.behavior_cats[static_cast<size_t>(i * batch.seq_len + j)] = 3;
        batch.behavior_brands[static_cast<size_t>(i * batch.seq_len + j)] = 9;
      }
    }
  }
  Matrix after = net.Forward(batch).value();
  EXPECT_TRUE(AllClose(before, after, 1e-6f));
}

TEST(ExpertBankTest, ScoresShape) {
  Rng rng(10);
  ExpertBank bank(24, TinyDims(), &rng);
  EXPECT_EQ(bank.num_experts(), 3);
  Var scores = bank.ForwardAll(Var(Matrix::Full(5, 24, 0.1f)));
  EXPECT_EQ(scores.rows(), 5);
  EXPECT_EQ(scores.cols(), 3);
}

TEST(ExpertBankTest, ExpertsDifferByInitialisation) {
  Rng rng(11);
  ExpertBank bank(8, TinyDims(), &rng);
  Matrix scores = bank.ForwardAll(Var(Matrix::Full(1, 8, 0.5f))).value();
  EXPECT_NE(scores(0, 0), scores(0, 1));
  EXPECT_NE(scores(0, 1), scores(0, 2));
}

TEST(DnnRankerTest, LogitsShapeAndGradFlow) {
  Rng rng(12);
  DatasetMeta meta = TestMeta();
  DnnRanker model(meta, TinyDims(), &rng);
  Batch batch = MakeBatch(meta, 4);
  Var logits = model.ForwardLogits(batch);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), 1);
  ag::BceWithLogitsLoss(logits, batch.labels).Backward();
  int64_t with_grad = 0;
  for (const Var& p : model.Parameters()) {
    if (p.has_grad()) ++with_grad;
  }
  EXPECT_GT(with_grad, 0);
}

TEST(DinRankerTest, DiffersFromDnnOutput) {
  Rng rng(13);
  DatasetMeta meta = TestMeta();
  DnnRanker dnn(meta, TinyDims(), &rng);
  Rng rng2(13);
  DinRanker din(meta, TinyDims(), &rng2);
  Batch batch = MakeBatch(meta, 3, /*min_history=*/2);
  Matrix a = dnn.ForwardLogits(batch).value();
  Matrix b = din.ForwardLogits(batch).value();
  EXPECT_FALSE(AllClose(a, b, 1e-6f));
}

TEST(CategoryMoeTest, GateIsDistributionOverExperts) {
  Rng rng(14);
  DatasetMeta meta = TestMeta();
  CategoryMoeRanker model(meta, TinyDims(), &rng);
  Batch batch = MakeBatch(meta, 4);
  Matrix gate = model.GateRepresentation(batch).value();
  EXPECT_EQ(gate.cols(), 3);
  for (int64_t i = 0; i < gate.rows(); ++i) {
    float total = 0.0f;
    for (int64_t k = 0; k < gate.cols(); ++k) {
      EXPECT_GT(gate(i, k), 0.0f);
      total += gate(i, k);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(CategoryMoeTest, GateDependsOnlyOnQueryCategory) {
  Rng rng(15);
  DatasetMeta meta = TestMeta();
  CategoryMoeRanker model(meta, TinyDims(), &rng);
  Batch batch = MakeBatch(meta, 2);
  batch.query_cats = {3, 3};
  Matrix gate = model.GateRepresentation(batch).value();
  // Same category -> identical gate rows regardless of other features.
  for (int64_t k = 0; k < gate.cols(); ++k) {
    EXPECT_FLOAT_EQ(gate(0, k), gate(1, k));
  }
}

TEST(RankerInterfaceTest, ParameterCountsPositiveAndDistinct) {
  Rng rng(16);
  DatasetMeta meta = TestMeta();
  DnnRanker dnn(meta, TinyDims(), &rng);
  Rng rng2(17);
  CategoryMoeRanker moe(meta, TinyDims(), &rng2);
  EXPECT_GT(dnn.NumParameters(), 0);
  // MoE has K experts + gate on top of shared structure.
  EXPECT_GT(moe.NumParameters(), dnn.NumParameters());
}

// Score CHECK-fails on an optional input the model's traits do not
// declare: a gate for DNN, an encoding for Category-MoE, slate starts
// for any pointwise model.
TEST(RankerInterfaceDeathTest, ScoreRejectsUndeclaredInputs) {
  const DatasetMeta meta = TestMeta();
  Rng rng(18);
  DnnRanker dnn(meta, TinyDims(), &rng);
  CategoryMoeRanker moe(meta, TinyDims(), &rng);
  Batch batch = MakeBatch(meta, 2, /*min_history=*/1);
  auto workspace = dnn.CreateInferenceWorkspace(4);
  std::vector<float> out(2);
  std::vector<float> rows(256, 0.0f);
  const SessionGate gate{rows.data(), 1, 3};
  const SessionEncoding encoding{rows.data(), 1, 3};
  const std::vector<int64_t> starts = {0};
  EXPECT_DEATH(dnn.Score({.batch = batch,
                          .workspace = workspace.get(),
                          .out = out,
                          .gate = &gate}),
               "no session gate");
  EXPECT_DEATH(moe.Score({.batch = batch,
                          .workspace = workspace.get(),
                          .out = out,
                          .encoding = &encoding}),
               "no session encoding");
  EXPECT_DEATH(moe.Score({.batch = batch,
                          .workspace = workspace.get(),
                          .out = out,
                          .slate_starts = starts}),
               "is pointwise");
}

// ---------------------------------------------------------------------
// Ranker::Clone: the serving ModelPool materialises replica lanes from
// one loaded model, so clones must be bitwise-equal in output and fully
// disjoint in storage.
// ---------------------------------------------------------------------

/// Clones `original`, then asserts (a) bitwise-identical inference
/// logits, (b) equal parameter values in (c) disjoint storage, by
/// perturbing the original's first parameter and checking the clone
/// neither sees the change nor shifts its logits.
void CheckCloneIndependence(Ranker* original, const DatasetMeta& meta) {
  std::unique_ptr<Ranker> clone = original->Clone();
  ASSERT_NE(clone, nullptr) << original->name() << " must be cloneable";
  // ModelPool serves a clone of another dynamic type single-lane.
  EXPECT_EQ(typeid(*clone), typeid(*original));
  EXPECT_EQ(clone->name(), original->name());
  EXPECT_EQ(clone->NumParameters(), original->NumParameters());

  Batch batch = MakeBatch(meta, 4, /*min_history=*/1);
  NoGradGuard guard;
  Matrix want = original->ForwardLogits(batch).value();
  Matrix got = clone->ForwardLogits(batch).value();
  ASSERT_EQ(got.rows(), want.rows());
  for (int64_t r = 0; r < want.rows(); ++r) {
    EXPECT_EQ(got(r, 0), want(r, 0)) << "row " << r;
  }

  std::vector<Var> orig_params = original->Parameters();
  std::vector<Var> clone_params = clone->Parameters();
  ASSERT_EQ(orig_params.size(), clone_params.size());
  for (size_t i = 0; i < orig_params.size(); ++i) {
    // Equal values, distinct buffers.
    EXPECT_NE(orig_params[i].value().data(), clone_params[i].value().data())
        << "parameter " << i << " shares storage";
    ASSERT_EQ(orig_params[i].value().size(), clone_params[i].value().size());
    for (int64_t k = 0; k < orig_params[i].value().size(); ++k) {
      ASSERT_EQ(orig_params[i].value().data()[k],
                clone_params[i].value().data()[k])
          << "parameter " << i << " element " << k;
    }
  }

  // Perturb the original: the clone's weights and logits must not move.
  const float before = clone_params[0].value().data()[0];
  orig_params[0].mutable_value().data()[0] += 1.0f;
  EXPECT_EQ(clone_params[0].value().data()[0], before);
  Matrix after = clone->ForwardLogits(batch).value();
  for (int64_t r = 0; r < want.rows(); ++r) {
    EXPECT_EQ(after(r, 0), want(r, 0)) << "clone drifted at row " << r;
  }
  // Undo so shared fixtures are unaffected.
  orig_params[0].mutable_value().data()[0] -= 1.0f;
}

TEST(RankerCloneTest, DnnCloneIsBitwiseEqualAndDisjoint) {
  Rng rng(21);
  DatasetMeta meta = TestMeta();
  DnnRanker model(meta, TinyDims(), &rng);
  CheckCloneIndependence(&model, meta);
}

TEST(RankerCloneTest, DinCloneIsBitwiseEqualAndDisjoint) {
  Rng rng(22);
  DatasetMeta meta = TestMeta();
  DinRanker model(meta, TinyDims(), &rng);
  CheckCloneIndependence(&model, meta);
}

TEST(RankerCloneTest, CategoryMoeCloneIsBitwiseEqualAndDisjoint) {
  Rng rng(23);
  DatasetMeta meta = TestMeta();
  CategoryMoeRanker model(meta, TinyDims(), &rng);
  CheckCloneIndependence(&model, meta);
}

TEST(RankerCloneTest, AwMoeCloneIsBitwiseEqualAndDisjoint) {
  Rng rng(24);
  DatasetMeta meta = TestMeta();
  AwMoeConfig config;
  config.dims = TinyDims();
  AwMoeRanker model(meta, config, &rng);
  CheckCloneIndependence(&model, meta);
}

TEST(RankerCloneTest, AwMoeCloneSharesGateEligibilityAndConfig) {
  Rng rng(25);
  DatasetMeta meta = TestMeta();
  AwMoeConfig config;
  config.dims = TinyDims();
  config.name = "AW-MoE & CL";
  AwMoeRanker model(meta, config, &rng);
  std::unique_ptr<Ranker> clone = model.Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), "AW-MoE & CL");
  EXPECT_TRUE(clone->Traits(meta).share_gate);
  auto* aw_clone = dynamic_cast<AwMoeRanker*>(clone.get());
  ASSERT_NE(aw_clone, nullptr);
  // The §III-F serving path must agree bitwise across replicas too.
  Batch batch = MakeBatch(meta, 3, /*min_history=*/1);
  NoGradGuard guard;
  Matrix gate_a = model.GateRepresentation(batch).value();
  Matrix gate_b = aw_clone->GateRepresentation(batch).value();
  for (int64_t r = 0; r < gate_a.rows(); ++r) {
    for (int64_t c = 0; c < gate_a.cols(); ++c) {
      EXPECT_EQ(gate_a(r, c), gate_b(r, c));
    }
  }
}

}  // namespace
}  // namespace awmoe
