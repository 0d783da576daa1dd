// RetrainDriver end-to-end: the PR 9 train->serve loop. Each test
// stands up a live ServingEngine on a trained stable model, then lets
// the driver generate a fresh data window, retrain its replica with
// the ParallelTrainer, stage the clone, and tick the health-gated ramp
// while the drift gate is fed by shadow scoring — all under live
// Submit() traffic injected through between_ticks. Runs in the
// serving_ CTest group, so TSan and ASan cover the shadow-scoring path
// against the async front for free.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "train/retrain_driver.h"

namespace awmoe {
namespace {

/// The fixed "world": every retrain window re-derives its vocabulary
/// from this config (only the seed moves per round), so model shapes
/// stay valid across rounds.
JdConfig RetrainWorld() {
  JdConfig config;
  config.num_users = 200;
  config.num_items = 150;
  config.num_categories = 6;
  config.brands_per_category = 4;
  config.num_shops = 12;
  config.train_sessions = 240;
  config.test_sessions = 40;
  config.longtail1_sessions = 5;
  config.longtail2_sessions = 5;
  config.seed = 62001;
  return config;
}

AwMoeConfig SmallAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

class RetrainDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new JdDataset(JdSyntheticGenerator(RetrainWorld()).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng(31);
    stable_model_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng);
    // The stable baseline must actually be good: the regression test
    // below relies on trained-vs-untrained engagement clearing the
    // drift floor.
    TrainerConfig trainer_config;
    trainer_config.batch_size = 64;
    trainer_config.epochs = 6;
    trainer_config.seed = 5;
    Trainer trainer(stable_model_, trainer_config);
    trainer.Train(data_->train, data_->meta, standardizer_);
    sessions_ = new std::vector<std::vector<const Example*>>(
        GroupBySession(data_->full_test));
  }
  static void TearDownTestSuite() {
    delete sessions_;
    delete stable_model_;
    delete standardizer_;
    delete data_;
    sessions_ = nullptr;
    stable_model_ = nullptr;
    standardizer_ = nullptr;
    data_ = nullptr;
  }

  static RankRequest RequestFor(size_t s) {
    const auto& session = (*sessions_)[s % sessions_->size()];
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    return request;
  }

  /// Retrain options tuned for a 1-core test container: one epoch on
  /// two workers per round, a short ramp, permissive latency gates
  /// (the drift gate is the one under test), and an armed drift gate.
  static RetrainOptions Options() {
    RetrainOptions options;
    options.data = RetrainWorld();
    options.trainer.base.batch_size = 64;
    options.trainer.base.epochs = 1;
    options.trainer.base.seed = 100;
    options.trainer.num_workers = 2;
    options.trainer.grad_accumulation = 2;
    options.rollout.ramp_permille = {500, 1000};
    options.rollout.min_stage_requests = 10;
    options.rollout.max_p99_ratio = 50.0;
    options.rollout.p99_slack_ms = 500.0;
    options.rollout.min_drift_sessions = 40;
    options.rollout.max_engagement_drop = 0.10;
    options.rollout.engagement_slack = 0.05;
    options.shadow_sessions_per_tick = 16;
    options.shadow_top_k = 3;
    return options;
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* stable_model_;
  static std::vector<std::vector<const Example*>>* sessions_;
};

JdDataset* RetrainDriverTest::data_ = nullptr;
Standardizer* RetrainDriverTest::standardizer_ = nullptr;
AwMoeRanker* RetrainDriverTest::stable_model_ = nullptr;
std::vector<std::vector<const Example*>>* RetrainDriverTest::sessions_ =
    nullptr;

TEST_F(RetrainDriverTest, HealthyRoundPromotesUnderLiveSubmitTraffic) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", stable_model_);
  ServingEngine engine(&pool);

  RetrainDriver driver(&engine, &pool, "aw-moe", stable_model_->Clone(),
                       Options());

  // Live async traffic flows through the engine on every ramp tick;
  // futures are only collected (no assertions off the main thread).
  std::vector<std::future<RankResponse>> live;
  size_t next_session = 0;
  const RetrainRoundResult result = driver.RunRound([&] {
    for (int i = 0; i < 4; ++i) {
      live.push_back(engine.Submit(RequestFor(next_session++)));
    }
  });
  engine.Stop(/*drain=*/true);

  EXPECT_EQ(result.final_state, RolloutState::kPromoted)
      << result.last_decision;
  EXPECT_EQ(result.staged_version, 2);
  EXPECT_EQ(driver.promoted(), 1);
  EXPECT_EQ(driver.rolled_back(), 0);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 2);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(engine.router()->split_permille("aw-moe"), 0);

  // The gate gathered real evidence and it is visible in ServingStats:
  // per-version counters, the engine-wide totals, and the snapshot.
  const VersionHealthSnapshot candidate_health =
      engine.stats().VersionHealth("aw-moe", 2);
  EXPECT_GE(candidate_health.drift_sessions,
            Options().rollout.min_drift_sessions);
  EXPECT_GE(engine.stats().VersionHealth("aw-moe", 1).drift_sessions,
            Options().rollout.min_drift_sessions);
  EXPECT_GT(engine.Stats().drift_sessions, 0);
  EXPECT_GT(result.candidate_engagement, 0.0);
  EXPECT_GT(result.stable_engagement, 0.0);

  // Every live request resolved cleanly while the ramp ran.
  ASSERT_FALSE(live.empty());
  for (auto& future : live) {
    const RankResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status;
  }
}

TEST_F(RetrainDriverTest, RegressedRoundAutoRollsBackOnDrift) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", stable_model_);
  ServingEngine engine(&pool);

  RetrainDriver driver(&engine, &pool, "aw-moe", stable_model_->Clone(),
                       Options());
  // Sabotage the STAGED CLONE: ship untrained random weights, the
  // canonical "training pipeline silently broke" regression. Latency
  // and error health stay perfect — only the drift gate can catch it.
  driver.set_post_train_hook([this](Ranker* staged) {
    Rng rng(991);
    AwMoeRanker garbage(data_->meta, SmallAwMoeConfig(), &rng);
    CopyParametersInto(garbage, staged);
  });

  const RetrainRoundResult result = driver.RunRound();

  EXPECT_EQ(result.final_state, RolloutState::kRolledBack)
      << result.last_decision;
  EXPECT_EQ(driver.promoted(), 0);
  EXPECT_EQ(driver.rolled_back(), 1);
  // The regression never reached stable.
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 1);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(engine.router()->split_permille("aw-moe"), 0);
  EXPECT_NE(result.last_decision.find("engagement"), std::string::npos)
      << result.last_decision;
  EXPECT_LT(result.candidate_engagement, result.stable_engagement);

  // The sabotage did not poison the warm-start lineage: the next round
  // retrains from the surviving stable weights and promotes.
  driver.set_post_train_hook(nullptr);
  const RetrainRoundResult retry = driver.RunRound();
  EXPECT_EQ(retry.final_state, RolloutState::kPromoted)
      << retry.last_decision;
  EXPECT_GT(retry.staged_version, result.staged_version);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), retry.staged_version);
}

TEST_F(RetrainDriverTest, ConsecutiveRoundsPromoteMonotoneVersions) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", stable_model_);
  ServingEngine engine(&pool);

  RetrainDriver driver(&engine, &pool, "aw-moe", stable_model_->Clone(),
                       Options());
  const RetrainRoundResult first = driver.RunRound();
  const RetrainRoundResult second = driver.RunRound();

  EXPECT_EQ(first.final_state, RolloutState::kPromoted)
      << first.last_decision;
  EXPECT_EQ(second.final_state, RolloutState::kPromoted)
      << second.last_decision;
  EXPECT_EQ(driver.rounds(), 2);
  EXPECT_EQ(driver.promoted(), 2);
  EXPECT_EQ(first.staged_version, 2);
  EXPECT_EQ(second.staged_version, 3);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 3);
  EXPECT_EQ(driver.controller().stable_version(), 3);
  ASSERT_EQ(driver.history().size(), 2u);
  // Distinct windows, distinct seeds: the rounds really retrained.
  EXPECT_GT(first.train_seconds, 0.0);
  EXPECT_GT(second.train_seconds, 0.0);
  EXPECT_GT(first.ticks, 0);
}

}  // namespace
}  // namespace awmoe
