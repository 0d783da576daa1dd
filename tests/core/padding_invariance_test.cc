// Padded behaviour positions are never read. The behaviour stack holds
// only the positions with behavior_mask > 0 (nn/exec.h), so rewriting
// the ids and attributes a batch carries at its padded positions — to
// other in-vocabulary values — must leave every served output and every
// training gradient bitwise unchanged, at both kernel tiers. The
// autograd graph's stacks must have exactly one row per real position.

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/aw_moe.h"
#include "core/contrastive.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/model_dims.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace awmoe {
namespace {

constexpr int64_t kRows = 96;

/// Bitwise, so -0 and +0 differ.
void ExpectBitwise(std::span<const float> want, std::span<const float> got,
                   const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0)
      << what;
}

std::span<const float> Span(const Matrix& m) {
  return {m.data(), static_cast<size_t>(m.size())};
}

/// `batch` with every padded position's item, category and brand ids
/// and attributes rewritten to other in-vocabulary values.
Batch RewritePadding(const Batch& batch, const DatasetMeta& meta) {
  Batch out = batch;
  const int64_t l = batch.seq_len;
  int64_t rewritten = 0;
  for (int64_t r = 0; r < batch.size; ++r) {
    for (int64_t j = 0; j < l; ++j) {
      if (batch.behavior_mask(r, j) > 0.0f) continue;
      const size_t at = static_cast<size_t>(r * l + j);
      out.behavior_items[at] = 1 + (r * 7 + j) % (meta.num_items - 1);
      out.behavior_cats[at] = 1 + (r + j) % (meta.num_cats - 1);
      out.behavior_brands[at] = 1 + (r * 3 + j) % (meta.num_brands - 1);
      for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
        out.behavior_attrs(r, j * Example::kItemAttrs + c) =
            1.5f - 0.5f * static_cast<float>(c);
      }
      ++rewritten;
    }
  }
  EXPECT_GT(rewritten, 0) << "the batch has no padding to rewrite";
  return out;
}

/// Calls fn on every node of the graph below `root`, once.
void ForEachNode(const Var& root,
                 const std::function<void(const internal_ag::VarImpl&)>& fn) {
  std::unordered_set<const internal_ag::VarImpl*> seen;
  std::vector<const internal_ag::VarImpl*> todo = {root.impl().get()};
  while (!todo.empty()) {
    const internal_ag::VarImpl* node = todo.back();
    todo.pop_back();
    if (!seen.insert(node).second) continue;
    fn(*node);
    for (const auto& parent : node->parents) todo.push_back(parent.get());
  }
}

/// Score (fused and replaying the batch's own encoding), GateInto and
/// ForwardLogits, concatenated.
std::vector<float> ServedOutputs(AwMoeRanker* model, const Batch& batch) {
  auto workspace = model->CreateInferenceWorkspace(batch.size);
  const ServingTraits traits = model->Traits(DatasetMeta{});
  std::vector<float> scores(static_cast<size_t>(batch.size));
  model->Score({.batch = batch, .workspace = workspace.get(), .out = scores});
  std::vector<float> out = scores;
  std::vector<float> gate(static_cast<size_t>(batch.size * traits.gate_width));
  model->GateInto(batch, workspace.get(), gate);
  out.insert(out.end(), gate.begin(), gate.end());
  std::vector<float> encoding(
      static_cast<size_t>(batch.size * traits.encoding_width));
  model->EncodeSessionInto(batch, workspace.get(), encoding);
  const SessionEncoding session{encoding.data(), batch.size,
                                traits.encoding_width};
  model->Score({.batch = batch,
                .workspace = workspace.get(),
                .out = scores,
                .encoding = &session});
  out.insert(out.end(), scores.begin(), scores.end());
  NoGradGuard guard;
  const Matrix logits = model->ForwardLogits(batch).value();
  out.insert(out.end(), logits.data(), logits.data() + logits.size());
  return out;
}

class PaddingInvarianceTest
    : public ::testing::TestWithParam<std::tuple<KernelTier, GateMode>> {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.seed = 5;
    jd.train_sessions = 120;
    jd.test_sessions = 10;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    const KernelTier tier = std::get<0>(GetParam());
    if (tier == KernelTier::kFast && !FastKernelTierAvailable()) {
      GTEST_SKIP() << "fast kernel tier not available on this host";
    }
    tier_ = std::make_unique<ScopedKernelTier>(tier);
    ASSERT_GE(data_->train.size(), static_cast<size_t>(kRows));
    Standardizer standardizer;
    standardizer.Fit(data_->train);
    std::vector<const Example*> rows;
    for (int64_t r = 0; r < kRows; ++r) rows.push_back(&data_->train[r]);
    batch_ = CollateBatch(rows, data_->meta, &standardizer);
    rewritten_ = RewritePadding(batch_, data_->meta);
    AwMoeConfig config;
    config.dims = ModelDims::Default();
    config.gate.mode = std::get<1>(GetParam());
    Rng rng(17);
    model_ = std::make_unique<AwMoeRanker>(data_->meta, config, &rng);
  }

  static JdDataset* data_;
  std::unique_ptr<ScopedKernelTier> tier_;
  Batch batch_;
  Batch rewritten_;
  std::unique_ptr<AwMoeRanker> model_;
};

JdDataset* PaddingInvarianceTest::data_ = nullptr;

TEST_P(PaddingInvarianceTest, ServedOutputsIgnorePaddedPositions) {
  ExpectBitwise(ServedOutputs(model_.get(), batch_),
                ServedOutputs(model_.get(), rewritten_),
                "Score, GateInto, replayed Score, ForwardLogits");
}

TEST_P(PaddingInvarianceTest, TrainingGradientsIgnorePaddedPositions) {
  TrainerConfig config;
  config.contrastive = true;
  std::vector<std::vector<Matrix>> grads;
  for (const Batch* batch : {&batch_, &rewritten_}) {
    std::unique_ptr<Ranker> model = model_->Clone();
    Rng augment_rng(29);
    ContrastiveAugmenter augmenter(config.cl, &augment_rng);
    BatchLossTerms terms;
    Var loss =
        BuildTrainingLoss(model.get(), *batch, config, &augmenter, &terms);
    if (grads.empty()) {
      // Every stack the graph pools — the input and gate networks', of
      // the batch and of its contrastive copy — has one row per real
      // position of the batch it came from.
      const int64_t real = static_cast<int64_t>(SumAll(batch->behavior_mask));
      std::vector<int64_t> stack_rows;
      ForEachNode(loss, [&](const internal_ag::VarImpl& node) {
        if (std::strcmp(node.op, "scatter_sum_rows") == 0) {
          stack_rows.push_back(node.parents[0]->value.rows());
        }
      });
      // The contrastive copy masks some real positions away, so its
      // stack is shorter.
      int64_t batch_stacks = 0;
      for (const int64_t rows : stack_rows) {
        EXPECT_LE(rows, real);
        batch_stacks += rows == real ? 1 : 0;
      }
      EXPECT_EQ(batch_stacks, 2) << "input and gate stacks of " << real
                                 << " rows";
      EXPECT_GT(stack_rows.size(), 2u) << "no contrastive stack";
      EXPECT_LT(real, kRows * batch->seq_len);
    }
    loss.Backward();
    std::vector<Matrix> g;
    for (const Var& p : model->Parameters()) {
      g.push_back(p.has_grad() ? p.grad() : Matrix());
    }
    grads.push_back(std::move(g));
  }
  ASSERT_EQ(grads[0].size(), grads[1].size());
  for (size_t i = 0; i < grads[0].size(); ++i) {
    ExpectBitwise(Span(grads[0][i]), Span(grads[1][i]),
                  "parameter " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndGates, PaddingInvarianceTest,
    ::testing::Combine(::testing::Values(KernelTier::kReference,
                                         KernelTier::kFast),
                       ::testing::Values(GateMode::kFull,
                                         GateMode::kBaseSumPool)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == KernelTier::kReference
                             ? "Reference"
                             : "Fast") +
             (std::get<1>(info.param) == GateMode::kFull ? "Full"
                                                         : "BaseSumPool");
    });

}  // namespace
}  // namespace awmoe
