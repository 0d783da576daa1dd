#include "core/trainer.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "data/jd_synthetic.h"
#include "eval/metrics.h"
#include "models/dnn_ranker.h"
#include "util/hash.h"

namespace awmoe {
namespace {

JdConfig TinyCorpus() {
  JdConfig config;
  config.num_users = 300;
  config.num_items = 200;
  config.num_categories = 8;
  config.brands_per_category = 4;
  config.num_shops = 15;
  config.train_sessions = 300;
  config.test_sessions = 60;
  config.longtail1_sessions = 10;
  config.longtail2_sessions = 10;
  config.seed = 4242;
  return config;
}

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {16, 8};
  dims.num_experts = 3;
  return dims;
}

class TrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new JdDataset(JdSyntheticGenerator(TinyCorpus()).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete standardizer_;
    data_ = nullptr;
    standardizer_ = nullptr;
  }
  static JdDataset* data_;
  static Standardizer* standardizer_;
};

JdDataset* TrainerTest::data_ = nullptr;
Standardizer* TrainerTest::standardizer_ = nullptr;

TEST_F(TrainerTest, LossDecreasesOverEpochs) {
  Rng rng(1);
  DnnRanker model(data_->meta, TinyDims(), &rng);
  TrainerConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  config.lr = 3e-3f;
  Trainer trainer(&model, config);
  auto history = trainer.Train(data_->train, data_->meta, standardizer_);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_LT(history.back().mean_rank_loss, history.front().mean_rank_loss);
}

TEST_F(TrainerTest, TrainingBeatsUntrainedModel) {
  Rng rng(2);
  DnnRanker model(data_->meta, TinyDims(), &rng);
  auto before = Predict(&model, data_->full_test, data_->meta, standardizer_);
  double auc_before =
      EvaluateRanking(data_->full_test, before).auc;

  TrainerConfig config;
  config.epochs = 3;
  config.batch_size = 64;
  config.lr = 3e-3f;
  Trainer trainer(&model, config);
  trainer.Train(data_->train, data_->meta, standardizer_);
  auto after = Predict(&model, data_->full_test, data_->meta, standardizer_);
  double auc_after = EvaluateRanking(data_->full_test, after).auc;
  EXPECT_GT(auc_after, auc_before + 0.05);
  EXPECT_GT(auc_after, 0.6);
}

TEST_F(TrainerTest, ContrastiveTrainingRunsAndReportsClLoss) {
  Rng rng(3);
  AwMoeConfig aw_config;
  aw_config.dims = TinyDims();
  AwMoeRanker model(data_->meta, aw_config, &rng);
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  config.contrastive = true;
  Trainer trainer(&model, config);
  auto history = trainer.Train(data_->train, data_->meta, standardizer_);
  EXPECT_GT(history[0].mean_cl_loss, 0.0);
  // InfoNCE with l=3 negatives starts near ln(4).
  EXPECT_LT(history[0].mean_cl_loss, 3.0);
}

TEST_F(TrainerTest, ContrastiveLossDecreases) {
  Rng rng(4);
  AwMoeConfig aw_config;
  aw_config.dims = TinyDims();
  AwMoeRanker model(data_->meta, aw_config, &rng);
  TrainerConfig config;
  config.epochs = 4;
  config.batch_size = 64;
  config.contrastive = true;
  config.cl.weight = 0.2;  // Emphasise CL so the trend is visible.
  Trainer trainer(&model, config);
  auto history = trainer.Train(data_->train, data_->meta, standardizer_);
  EXPECT_LT(history.back().mean_cl_loss, history.front().mean_cl_loss);
}

TEST_F(TrainerTest, PredictAlignsWithExamplesAndIsProbability) {
  Rng rng(5);
  DnnRanker model(data_->meta, TinyDims(), &rng);
  auto scores = Predict(&model, data_->full_test, data_->meta, standardizer_);
  ASSERT_EQ(scores.size(), data_->full_test.size());
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(TrainerTest, PredictIsDeterministic) {
  Rng rng(6);
  DnnRanker model(data_->meta, TinyDims(), &rng);
  auto a = Predict(&model, data_->full_test, data_->meta, standardizer_);
  auto b = Predict(&model, data_->full_test, data_->meta, standardizer_);
  EXPECT_EQ(a, b);
}

TEST_F(TrainerTest, DeterministicTrainingForSameSeed) {
  auto run = [&]() {
    Rng rng(7);
    DnnRanker model(data_->meta, TinyDims(), &rng);
    TrainerConfig config;
    config.epochs = 1;
    config.batch_size = 64;
    config.seed = 11;
    Trainer trainer(&model, config);
    trainer.Train(data_->train, data_->meta, standardizer_);
    return Predict(&model, data_->full_test, data_->meta, standardizer_);
  };
  EXPECT_EQ(run(), run());
}

TEST_F(TrainerTest, AuxiliaryDiversityLossIsApplied) {
  Rng rng(8);
  AwMoeConfig aw_config;
  aw_config.dims = TinyDims();
  aw_config.diversity_weight = 0.05;
  AwMoeRanker model(data_->meta, aw_config, &rng);
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  Trainer trainer(&model, config);
  // Must run without error and keep training stable.
  auto history = trainer.Train(data_->train, data_->meta, standardizer_);
  EXPECT_TRUE(std::isfinite(history[0].mean_rank_loss));

  // The term reaches the loss: on one batch the training loss is the
  // rank loss plus the forward's non-zero aux_loss.
  BatchIterator it(&data_->train, data_->meta, config.batch_size,
                   standardizer_, /*rng=*/nullptr);
  Batch batch;
  ASSERT_TRUE(it.Next(&batch));
  BatchLossTerms terms;
  const float loss =
      BuildTrainingLoss(&model, batch, config, /*augmenter=*/nullptr, &terms)
          .value()(0, 0);
  const float aux = model.Forward(batch).aux_loss.value()(0, 0);
  ASSERT_NE(aux, 0.0f);
  EXPECT_EQ(loss, static_cast<float>(terms.rank_loss) + aux);
}

// Pins what training produces across commits: a few seeded steps at
// the reference kernel tier, hashed over the float bits of every
// parameter. The reference tier is pure scalar code (the AVX2/FMA
// translation unit is never called), so the hash does not depend on
// the optimisation level; a change to the op sequence of any forward
// or backward pass changes it. Update the constants only for a
// deliberate change to the training arithmetic, never for a refactor.
uint64_t ParameterFingerprint(const Ranker& model) {
  uint64_t h = kFnv1a64Offset;
  for (const Var& p : model.Parameters()) {
    const Matrix& m = p.value();
    for (int64_t i = 0; i < m.size(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, m.data() + i, sizeof(bits));
      h = Fnv1a64Mix(h, bits);
    }
  }
  return h;
}

TEST_F(TrainerTest, ReferenceTierTrainingFingerprint) {
  ScopedKernelTier tier(KernelTier::kReference);
  const std::vector<Example> train(data_->train.begin(),
                                   data_->train.begin() + 96);
  auto train_steps = [&](Ranker* model, const DatasetMeta& meta,
                         bool contrastive) {
    TrainerConfig config;
    config.epochs = 1;
    config.batch_size = 32;  // Three optimizer steps.
    config.contrastive = contrastive;
    config.seed = 19;
    Trainer trainer(model, config);
    trainer.Train(train, meta, standardizer_);
    return ParameterFingerprint(*model);
  };
  AwMoeConfig aw_config;
  aw_config.dims = TinyDims();
  DatasetMeta rec_meta = data_->meta;
  rec_meta.recommendation_mode = true;
  {
    Rng rng(21);
    AwMoeRanker model(data_->meta, aw_config, &rng);
    EXPECT_EQ(train_steps(&model, data_->meta, true), 0x2ccb56b103bc9c71ull)
        << "AW-MoE, search mode";
  }
  {
    Rng rng(22);
    AwMoeRanker model(rec_meta, aw_config, &rng);
    EXPECT_EQ(train_steps(&model, rec_meta, true), 0x0379dc233d39a068ull)
        << "AW-MoE, recommendation mode";
  }
  {
    Rng rng(23);
    DnnRanker model(data_->meta, TinyDims(), &rng);
    EXPECT_EQ(train_steps(&model, data_->meta, false),
              0x14eda57117517fe6ull)
        << "DNN";
  }
}

}  // namespace
}  // namespace awmoe
