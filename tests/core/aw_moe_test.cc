#include "core/aw_moe.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "mat/kernel_tier.h"
#include "mat/kernels.h"
#include "util/rng.h"

namespace awmoe {
namespace {

DatasetMeta TestMeta(bool recommendation = false) {
  DatasetMeta meta;
  meta.num_items = 40;
  meta.num_cats = 5;
  meta.num_brands = 15;
  meta.num_shops = 8;
  meta.num_queries = 10;
  meta.max_seq_len = 4;
  meta.recommendation_mode = recommendation;
  return meta;
}

AwMoeConfig TinyConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  config.dims.num_experts = 4;
  return config;
}

Example MakeExample(int64_t seed_id, int64_t history_len) {
  Example ex;
  Rng rng(static_cast<uint64_t>(seed_id) * 131 + 7);
  for (int64_t j = 0; j < history_len; ++j) {
    ex.behavior_items.push_back(rng.UniformInt(1, 40));
    ex.behavior_cats.push_back(rng.UniformInt(1, 5));
    ex.behavior_brands.push_back(rng.UniformInt(1, 15));
  }
  ex.target_item = rng.UniformInt(1, 40);
  ex.target_cat = rng.UniformInt(1, 5);
  ex.target_brand = rng.UniformInt(1, 15);
  ex.target_shop = rng.UniformInt(1, 8);
  ex.query_id = rng.UniformInt(1, 10);
  ex.query_cat = ex.target_cat;
  ex.label = seed_id % 2 == 0 ? 1.0f : 0.0f;
  ex.numeric.assign(kNumNumericFeatures, 0.05f);
  return ex;
}

Batch MakeBatch(const DatasetMeta& meta, std::vector<int64_t> hist_lens) {
  static std::vector<Example> storage;
  storage.clear();
  for (size_t i = 0; i < hist_lens.size(); ++i) {
    storage.push_back(MakeExample(static_cast<int64_t>(i), hist_lens[i]));
  }
  std::vector<const Example*> ptrs;
  for (const Example& ex : storage) ptrs.push_back(&ex);
  return CollateBatch(ptrs, meta, nullptr);
}

TEST(AwMoeTest, ForwardShapes) {
  Rng rng(1);
  AwMoeRanker model(TestMeta(), TinyConfig(), &rng);
  Batch batch = MakeBatch(TestMeta(), {2, 3, 0});
  AwMoeRanker::ForwardResult result = model.Forward(batch);
  EXPECT_EQ(result.logits.rows(), 3);
  EXPECT_EQ(result.logits.cols(), 1);
  EXPECT_EQ(result.gate.rows(), 3);
  EXPECT_EQ(result.gate.cols(), 4);
  EXPECT_EQ(result.expert_scores.rows(), 3);
  EXPECT_EQ(result.expert_scores.cols(), 4);
}

TEST(AwMoeTest, LogitsAreGateWeightedExpertScores) {
  // Verifies Eq. 9: y = sum_k g_k s_k, elementwise per example.
  Rng rng(2);
  AwMoeRanker model(TestMeta(), TinyConfig(), &rng);
  Batch batch = MakeBatch(TestMeta(), {2, 4});
  AwMoeRanker::ForwardResult result = model.Forward(batch);
  Matrix expected = DotRows(result.expert_scores.value(),
                            result.gate.value());
  EXPECT_TRUE(AllClose(result.logits.value(), expected, 1e-5f));
}

TEST(AwMoeTest, GradientsReachAllParameterGroups) {
  Rng rng(3);
  AwMoeRanker model(TestMeta(), TinyConfig(), &rng);
  Batch batch = MakeBatch(TestMeta(), {3, 2, 1, 4});
  Var loss = ag::BceWithLogitsLoss(model.ForwardLogits(batch), batch.labels);
  loss.Backward();
  int64_t with_grad = 0, total = 0;
  for (const Var& p : model.Parameters()) {
    ++total;
    if (p.has_grad()) ++with_grad;
  }
  // Everything except possibly sparsely-hit embedding tables gets grads;
  // with this batch every module participates.
  EXPECT_EQ(with_grad, total);
}

TEST(AwMoeTest, GateRepresentationMatchesForwardGate) {
  Rng rng(4);
  AwMoeRanker model(TestMeta(), TinyConfig(), &rng);
  Batch batch = MakeBatch(TestMeta(), {2, 3});
  AwMoeRanker::ForwardResult result = model.Forward(batch);
  Var gate_only = model.GateRepresentation(batch);
  EXPECT_TRUE(AllClose(result.gate.value(), gate_only.value(), 1e-6f));
}

TEST(AwMoeTest, SharedSessionGateMatchesFullForwardInSearchMode) {
  // §III-F: sharing the session gate must be exact, not approximate,
  // because the gate ignores the target item in search mode.
  ScopedKernelTier tier(KernelTier::kReference);
  Rng rng(5);
  DatasetMeta meta = TestMeta();
  AwMoeRanker model(meta, TinyConfig(), &rng);

  // A session: same user/query/history, different targets.
  static std::vector<Example> storage;
  storage.clear();
  Example base = MakeExample(9, 3);
  for (int64_t t = 0; t < 5; ++t) {
    Example ex = base;
    ex.target_item = 1 + t;
    ex.target_cat = 1 + (t % 4);
    storage.push_back(ex);
  }
  std::vector<const Example*> ptrs;
  for (const Example& ex : storage) ptrs.push_back(&ex);
  Batch batch = CollateBatch(ptrs, meta, nullptr);

  Matrix full = model.ForwardLogits(batch).value();
  Batch probe = CollateBatch({ptrs[0]}, meta, nullptr);
  const Matrix shared_gate = model.GateRepresentation(probe).value();
  Matrix shared = model.Forward(batch, &shared_gate).logits.value();
  ASSERT_EQ(shared.rows(), full.rows());
  for (int64_t i = 0; i < full.rows(); ++i) {
    EXPECT_EQ(shared(i, 0), full(i, 0)) << "row " << i;
  }
}

TEST(AwMoeTest, DiversityPenaltyDefinedOnlyWhenConfigured) {
  Rng rng(6);
  AwMoeRanker plain(TestMeta(), TinyConfig(), &rng);
  Batch batch = MakeBatch(TestMeta(), {2});
  EXPECT_FALSE(plain.Forward(batch).aux_loss.defined());

  AwMoeConfig config = TinyConfig();
  config.diversity_weight = 0.1;
  Rng rng2(6);
  AwMoeRanker regularised(TestMeta(), config, &rng2);
  const Var aux = regularised.Forward(batch).aux_loss;
  ASSERT_TRUE(aux.defined());
  // Penalty is -w * variance <= 0.
  EXPECT_LE(aux.value()(0, 0), 0.0f);
}

TEST(AwMoeTest, NameReflectsConfig) {
  Rng rng(7);
  AwMoeConfig config = TinyConfig();
  config.name = "AW-MoE & CL";
  AwMoeRanker model(TestMeta(), config, &rng);
  EXPECT_EQ(model.name(), "AW-MoE & CL");
}

TEST(AwMoeTest, RecommendationModeWorksEndToEnd) {
  Rng rng(8);
  DatasetMeta meta = TestMeta(/*recommendation=*/true);
  AwMoeRanker model(meta, TinyConfig(), &rng);
  Batch batch = MakeBatch(meta, {2, 3});
  Var logits = model.ForwardLogits(batch);
  EXPECT_EQ(logits.rows(), 2);
  ag::BceWithLogitsLoss(logits, batch.labels).Backward();
}

TEST(AwMoeTest, DifferentUsersGetDifferentGates) {
  Rng rng(9);
  AwMoeRanker model(TestMeta(), TinyConfig(), &rng);
  Batch batch = MakeBatch(TestMeta(), {4, 4});
  Matrix gate = model.GateRepresentation(batch).value();
  bool differs = false;
  for (int64_t k = 0; k < gate.cols(); ++k) {
    if (gate(0, k) != gate(1, k)) differs = true;
  }
  EXPECT_TRUE(differs)
      << "user-oriented gating: different histories, different activation";
}

TEST(AwMoeTest, TopKSparseGatingProducesSparseLogitsPath) {
  Rng rng(10);
  AwMoeConfig config = TinyConfig();
  config.gate.top_k = 1;
  AwMoeRanker model(TestMeta(), config, &rng);
  Batch batch = MakeBatch(TestMeta(), {3, 2});
  AwMoeRanker::ForwardResult result = model.Forward(batch);
  for (int64_t i = 0; i < result.gate.rows(); ++i) {
    int64_t nonzero = 0;
    for (int64_t k = 0; k < result.gate.cols(); ++k) {
      if (result.gate.value()(i, k) != 0.0f) ++nonzero;
    }
    EXPECT_LE(nonzero, 1);
  }
}

}  // namespace
}  // namespace awmoe
