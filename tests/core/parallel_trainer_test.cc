// ParallelTrainer determinism contract (see core/parallel_trainer.h):
// worker-count independence is BITWISE, single-shard steps are bitwise-
// equal to the serial Trainer, and accumulated shard groups match a
// serial run over the same row unions to float tolerance.

#include "core/parallel_trainer.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/jd_synthetic.h"
#include "mat/kernel_tier.h"
#include "models/dnn_ranker.h"
#include "models/ranker.h"
#include "util/hash.h"

namespace awmoe {
namespace {

JdConfig TinyCorpus() {
  JdConfig config;
  config.num_users = 200;
  config.num_items = 150;
  config.num_categories = 6;
  config.brands_per_category = 4;
  config.num_shops = 12;
  config.train_sessions = 120;
  config.test_sessions = 30;
  config.longtail1_sessions = 5;
  config.longtail2_sessions = 5;
  config.seed = 90210;
  return config;
}

AwMoeConfig TinyAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

ModelDims TinyDims() {
  ModelDims dims;
  dims.emb_dim = 4;
  dims.tower_mlp = {8, 6};
  dims.activation_unit = {6, 4};
  dims.gate_unit = {6, 4};
  dims.expert = {12, 8};
  return dims;
}

/// Bitwise parameter equality (exact float identity, not tolerance).
void ExpectParamsBitwiseEqual(const Ranker& a, const Ranker& b) {
  const std::vector<Var> pa = a.Parameters();
  const std::vector<Var> pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix& ma = pa[i].value();
    const Matrix& mb = pb[i].value();
    ASSERT_EQ(ma.rows(), mb.rows());
    ASSERT_EQ(ma.cols(), mb.cols());
    for (int64_t k = 0; k < ma.size(); ++k) {
      ASSERT_EQ(ma.data()[k], mb.data()[k])
          << "param " << i << " element " << k << " diverged";
    }
  }
}

double MaxParamAbsDiff(const Ranker& a, const Ranker& b) {
  const std::vector<Var> pa = a.Parameters();
  const std::vector<Var> pb = b.Parameters();
  EXPECT_EQ(pa.size(), pb.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix& ma = pa[i].value();
    const Matrix& mb = pb[i].value();
    for (int64_t k = 0; k < ma.size(); ++k) {
      max_diff = std::max(
          max_diff, std::abs(static_cast<double>(ma.data()[k]) -
                             static_cast<double>(mb.data()[k])));
    }
  }
  return max_diff;
}

/// FNV-1a over the float bits of every parameter, in parameter order.
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

/// Every kernel tier this build and CPU can run.
std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  return tiers;
}

class ParallelTrainerTest : public ::testing::Test {
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

JdDataset* ParallelTrainerTest::data_ = nullptr;
Standardizer* ParallelTrainerTest::standardizer_ = nullptr;

TEST_F(ParallelTrainerTest, SingleShardStepsMatchSerialTrainerBitwise) {
  // grad_accumulation == 1, contrastive off: the parallel trainer walks
  // the serial Trainer's exact step sequence (the 1.0f shard weight is
  // an IEEE multiply identity), so two epochs end bit-for-bit equal —
  // at every kernel tier the training GEMMs can run on.
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    ScopedKernelTier pin(tier);
    TrainerConfig base;
    base.batch_size = 64;
    base.epochs = 2;
    base.seed = 11;

    Rng rng_serial(5);
    AwMoeRanker serial_model(data_->meta, TinyAwMoeConfig(), &rng_serial);
    Rng rng_parallel(5);
    AwMoeRanker parallel_model(data_->meta, TinyAwMoeConfig(),
                               &rng_parallel);

    Trainer serial(&serial_model, base);
    serial.Train(data_->train, data_->meta, standardizer_);

    ParallelTrainerConfig config;
    config.base = base;
    config.num_workers = 1;
    config.grad_accumulation = 1;
    ParallelTrainer parallel(&parallel_model, config);
    parallel.Train(data_->train, data_->meta, standardizer_);

    ExpectParamsBitwiseEqual(serial_model, parallel_model);
  }
}

TEST_F(ParallelTrainerTest, WorkerCountDoesNotChangeParametersBitwise) {
  // The headline contract: 4 workers over 3-shard groups, contrastive
  // ON (per-shard forked augmentation streams), ends bit-for-bit equal
  // to the same schedule on 1 worker.
  // Checked at every kernel tier the training GEMMs can run on.
  for (const KernelTier tier : AvailableTiers()) {
    SCOPED_TRACE(KernelTierName(tier));
    ScopedKernelTier pin(tier);
    TrainerConfig base;
    base.batch_size = 32;
    base.epochs = 2;
    base.seed = 23;
    base.contrastive = true;

    ParallelTrainerConfig config;
    config.base = base;
    config.grad_accumulation = 3;

    Rng rng_one(9);
    AwMoeRanker one_worker_model(data_->meta, TinyAwMoeConfig(), &rng_one);
    config.num_workers = 1;
    {
      ParallelTrainer trainer(&one_worker_model, config);
      trainer.Train(data_->train, data_->meta, standardizer_);
      EXPECT_GT(trainer.steps(), 0);
    }

    Rng rng_four(9);
    AwMoeRanker four_worker_model(data_->meta, TinyAwMoeConfig(), &rng_four);
    config.num_workers = 4;
    {
      ParallelTrainer trainer(&four_worker_model, config);
      trainer.Train(data_->train, data_->meta, standardizer_);
    }

    ExpectParamsBitwiseEqual(one_worker_model, four_worker_model);
  }
}

TEST_F(ParallelTrainerTest, AccumulatedShardsMatchSerialLargeBatch) {
  // Two B-row shards per step against a serial trainer with 2B-row
  // batches: the same shuffle stream slices into the same row unions,
  // and the row-weighted shard-gradient average equals the union-mean
  // gradient — mathematically exactly, in float to summation-order
  // tolerance. One epoch keeps the float drift bounded.
  TrainerConfig base;
  base.batch_size = 32;
  base.epochs = 1;
  base.seed = 31;

  Rng rng_serial(13);
  DnnRanker serial_model(data_->meta, TinyDims(), &rng_serial);
  Rng rng_parallel(13);
  DnnRanker parallel_model(data_->meta, TinyDims(), &rng_parallel);

  TrainerConfig serial_config = base;
  serial_config.batch_size = 64;
  Trainer serial(&serial_model, serial_config);
  EpochStats serial_stats =
      serial.TrainEpoch(data_->train, data_->meta, standardizer_);

  ParallelTrainerConfig config;
  config.base = base;
  config.num_workers = 2;
  config.grad_accumulation = 2;
  ParallelTrainer parallel(&parallel_model, config);
  EpochStats parallel_stats =
      parallel.TrainEpoch(data_->train, data_->meta, standardizer_);

  // Twice the shards, same optimizer step count.
  EXPECT_EQ(parallel_stats.num_batches, 2 * serial_stats.num_batches);
  EXPECT_EQ(parallel.steps(), serial_stats.num_batches);
  EXPECT_LT(MaxParamAbsDiff(serial_model, parallel_model), 1e-3);
}

TEST_F(ParallelTrainerTest, TrainingLearns) {
  // The parallel schedule must still optimise: loss decreases across
  // epochs with real parallelism in play.
  TrainerConfig base;
  base.batch_size = 32;
  base.epochs = 3;
  base.lr = 3e-3f;
  base.seed = 47;

  Rng rng(21);
  DnnRanker model(data_->meta, TinyDims(), &rng);
  ParallelTrainerConfig config;
  config.base = base;
  config.num_workers = 3;
  config.grad_accumulation = 2;
  ParallelTrainer trainer(&model, config);
  const std::vector<EpochStats> history =
      trainer.Train(data_->train, data_->meta, standardizer_);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_GT(history.front().num_batches, 0);
  EXPECT_LT(history.back().mean_rank_loss, history.front().mean_rank_loss);
}

// Pins what a parallel step produces across commits: AW-MoE with the
// contrastive loss, 2 workers, 2 shards per step, four steps at the
// reference tier (pure scalar code, so the hash does not depend on the
// optimisation level). The reduce, the norm, the clip and the AdamW
// update all sit inside the hash, once with the clip inactive (every
// step's global gradient norm is below 10) and once with it active on
// every step. Update the constants only for a deliberate change to the
// training arithmetic, never for a refactor of how the step runs.
TEST_F(ParallelTrainerTest, ReferenceTierFingerprint) {
  ScopedKernelTier tier(KernelTier::kReference);
  ASSERT_GE(data_->train.size(), 256u);
  const std::vector<Example> train(data_->train.begin(),
                                   data_->train.begin() + 256);
  auto fingerprint = [&](double grad_clip) {
    ParallelTrainerConfig config;
    config.base.batch_size = 32;
    config.base.epochs = 1;
    config.base.seed = 41;
    config.base.contrastive = true;
    config.base.grad_clip = grad_clip;
    config.num_workers = 2;
    config.grad_accumulation = 2;
    Rng rng(17);
    AwMoeRanker model(data_->meta, TinyAwMoeConfig(), &rng);
    ParallelTrainer trainer(&model, config);
    trainer.Train(train, data_->meta, standardizer_);
    EXPECT_EQ(trainer.steps(), 4);
    return ParameterFingerprint(model);
  };
  EXPECT_EQ(fingerprint(10.0), 0x83caae552a3a269eull) << "clipping inactive";
  EXPECT_EQ(fingerprint(1e-3), 0xc432dd1596e6c87bull) << "clipping active";
}

}  // namespace
}  // namespace awmoe
