#include "core/gate_network.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "data/batcher.h"
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

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  dims.num_experts = 4;
  return dims;
}

Example MakeExample(int64_t seed_id, int64_t history_len) {
  Example ex;
  Rng rng(static_cast<uint64_t>(seed_id) * 31 + 17);
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
  ex.numeric.assign(kNumNumericFeatures, 0.0f);
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

class GateNetworkTest : public ::testing::TestWithParam<GateMode> {};

TEST_P(GateNetworkTest, OutputShapeIsBatchByK) {
  Rng rng(1);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  config.mode = GetParam();
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {2, 3, 0, 4});
  Var g = gate.Forward(batch);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_EQ(g.cols(), 4);
}

TEST_P(GateNetworkTest, GradientsFlowToItsParameters) {
  Rng rng(2);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  config.mode = GetParam();
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {3, 2});
  ag::MeanAll(gate.Forward(batch)).Backward();
  for (const Var& p : gate.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST_P(GateNetworkTest, PaddingInvariance) {
  Rng rng(3);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  config.mode = GetParam();
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {2, 1});
  Matrix before = gate.Forward(batch).value();
  for (int64_t i = 0; i < batch.size; ++i) {
    for (int64_t j = 0; j < batch.seq_len; ++j) {
      if (batch.behavior_mask(i, j) == 0.0f) {
        batch.behavior_items[static_cast<size_t>(i * batch.seq_len + j)] = 5;
        batch.behavior_cats[static_cast<size_t>(i * batch.seq_len + j)] = 2;
        batch.behavior_brands[static_cast<size_t>(i * batch.seq_len + j)] = 4;
      }
    }
  }
  Matrix after = gate.Forward(batch).value();
  EXPECT_TRUE(AllClose(before, after, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(
    AllGateModes, GateNetworkTest,
    ::testing::Values(GateMode::kBaseSumPool, GateMode::kBaseGateUnit,
                      GateMode::kBaseActivationUnit, GateMode::kFull),
    [](const ::testing::TestParamInfo<GateMode>& info) {
      switch (info.param) {
        case GateMode::kBaseSumPool:
          return "BaseSumPool";
        case GateMode::kBaseGateUnit:
          return "BaseGateUnit";
        case GateMode::kBaseActivationUnit:
          return "BaseActivationUnit";
        case GateMode::kFull:
          return "Full";
      }
      return "Unknown";
    });

TEST(GateNetworkModesTest, ModesProduceDifferentOutputs) {
  DatasetMeta meta = TestMeta();
  Batch batch = MakeBatch(meta, {3, 2});
  std::vector<Matrix> outputs;
  for (GateMode mode :
       {GateMode::kBaseSumPool, GateMode::kBaseGateUnit,
        GateMode::kBaseActivationUnit, GateMode::kFull}) {
    Rng rng(77);  // Same seed: same parameters where shared.
    EmbeddingSet set(meta, 4, &rng);
    GateConfig config;
    config.mode = mode;
    GateNetwork gate(meta, TinyDims(), &set, config, &rng);
    outputs.push_back(gate.Forward(batch).value());
  }
  // Full vs sum-pool must differ.
  EXPECT_FALSE(AllClose(outputs[0], outputs[3], 1e-6f));
}

TEST(GateNetworkTest2, EmptyHistoryFallsBackToBias) {
  Rng rng(4);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  config.mode = GateMode::kFull;
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {0, 0});
  Matrix g = gate.Forward(batch).value();
  // With no behaviours the weighted sum vanishes: rows equal the bias,
  // hence equal each other (bias initialised to zero -> zeros).
  for (int64_t k = 0; k < g.cols(); ++k) {
    EXPECT_FLOAT_EQ(g(0, k), g(1, k));
  }
}

TEST(GateNetworkTest2, SoftmaxOptionNormalises) {
  Rng rng(5);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  config.softmax = true;
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {2, 3});
  Matrix g = gate.Forward(batch).value();
  for (int64_t i = 0; i < g.rows(); ++i) {
    float total = 0.0f;
    for (int64_t k = 0; k < g.cols(); ++k) total += g(i, k);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(GateNetworkTest2, TopKSparsifiesActivations) {
  Rng rng(6);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  config.top_k = 2;
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {3, 2, 4});
  Matrix g = gate.Forward(batch).value();
  for (int64_t i = 0; i < g.rows(); ++i) {
    int64_t nonzero = 0;
    for (int64_t k = 0; k < g.cols(); ++k) {
      if (g(i, k) != 0.0f) ++nonzero;
    }
    EXPECT_LE(nonzero, 2);
  }
}

TEST(GateNetworkTest2, RecommendationModeUsesTargetItem) {
  Rng rng(7);
  DatasetMeta meta = TestMeta(/*recommendation=*/true);
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {2, 2});
  Matrix g1 = gate.Forward(batch).value();
  // Changing the target item changes the gate output in rec mode.
  batch.target_items[0] = (batch.target_items[0] % 39) + 1;
  batch.target_cats[0] = (batch.target_cats[0] % 4) + 1;
  Matrix g2 = gate.Forward(batch).value();
  bool row0_changed = false;
  for (int64_t k = 0; k < g1.cols(); ++k) {
    if (g1(0, k) != g2(0, k)) row0_changed = true;
    EXPECT_FLOAT_EQ(g1(1, k), g2(1, k));  // Row 1 untouched.
  }
  EXPECT_TRUE(row0_changed);
}

TEST(GateNetworkTest2, SearchModeGateIgnoresTargetItem) {
  // §III-F: in search mode the gate reads only user + query features, the
  // property that allows one gate pass per session.
  Rng rng(8);
  DatasetMeta meta = TestMeta();
  EmbeddingSet set(meta, 4, &rng);
  GateConfig config;
  GateNetwork gate(meta, TinyDims(), &set, config, &rng);
  Batch batch = MakeBatch(meta, {2, 2});
  Matrix g1 = gate.Forward(batch).value();
  batch.target_items[0] = (batch.target_items[0] % 39) + 1;
  batch.target_shops[1] = (batch.target_shops[1] % 7) + 1;
  Matrix g2 = gate.Forward(batch).value();
  EXPECT_TRUE(AllClose(g1, g2, 0.0f));
}

TEST(GateUnitTest, OutputsKColumns) {
  Rng rng(9);
  AttentionUnit unit(6, {4}, /*out_dim=*/4, &rng);
  Var a(Matrix::Full(3, 6, 0.3f));
  Var b(Matrix::Full(3, 6, -0.2f));
  Var out = unit.Forward(a, b);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
}

}  // namespace
}  // namespace awmoe
