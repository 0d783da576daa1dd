// Staged-rollout suite: TrafficRouter bucketing (sticky, monotone,
// per-model independent), the ModelPool's two-arm stable/candidate
// routes, per-version health windows, the RolloutController's gates,
// and the acceptance storms — a full ramp auto-promoting and a forced
// rollback draining candidate leases, both under concurrent Submit()
// load. Worker threads only collect results; all gtest assertions run
// on the main thread after joining. Runs in the serving_ CTest group,
// so the TSan and ASan CI jobs cover the router and the candidate
// snapshot lifetime for free.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "serving/ab_test.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/rollout.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "lane_hold.h"

namespace awmoe {
namespace {

AwMoeConfig SmallAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

class RolloutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.num_users = 150;
    jd.num_items = 120;
    jd.num_categories = 8;
    jd.brands_per_category = 4;
    jd.num_shops = 15;
    jd.train_sessions = 40;
    jd.test_sessions = 40;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 2026;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng_a(31);
    model_a_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng_a);
    Rng rng_b(77);  // Different init: the two versions score differently.
    model_b_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng_b);
    sessions_ = new std::vector<std::vector<const Example*>>(
        GroupBySession(data_->full_test));
  }
  static void TearDownTestSuite() {
    delete sessions_;
    delete model_b_;
    delete model_a_;
    delete standardizer_;
    delete data_;
    sessions_ = nullptr;
    model_b_ = nullptr;
    model_a_ = nullptr;
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

  /// Reference scores per session from a single-replica synchronous
  /// engine over `model` — the bitwise anchor each arm is compared to.
  static std::vector<std::vector<double>> ReferenceScores(Ranker* model) {
    ModelPool pool(data_->meta, standardizer_);
    pool.Register("ref", model);
    ServingEngine engine(&pool);
    std::vector<std::vector<double>> scores(sessions_->size());
    for (size_t s = 0; s < sessions_->size(); ++s) {
      scores[s] = engine.Rank(RequestFor(s)).scores;
    }
    return scores;
  }

  /// Bitwise comparison of one response against the reference of the
  /// version that reports having served it (odd = A weights, even = B).
  static void ExpectVersionConsistent(
      const RankResponse& response, size_t session_index,
      const std::vector<std::vector<double>>& want_a,
      const std::vector<std::vector<double>>& want_b) {
    const auto& want = (response.model_version % 2 == 1) ? want_a : want_b;
    const std::vector<double>& session_want =
        want[session_index % sessions_->size()];
    ASSERT_EQ(response.scores.size(), session_want.size());
    for (size_t i = 0; i < session_want.size(); ++i) {
      ASSERT_EQ(response.scores[i], session_want[i])
          << "session " << session_index << " version "
          << response.model_version << " item " << i;
    }
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* model_a_;
  static AwMoeRanker* model_b_;
  static std::vector<std::vector<const Example*>>* sessions_;
};

JdDataset* RolloutTest::data_ = nullptr;
Standardizer* RolloutTest::standardizer_ = nullptr;
AwMoeRanker* RolloutTest::model_a_ = nullptr;
AwMoeRanker* RolloutTest::model_b_ = nullptr;
std::vector<std::vector<const Example*>>* RolloutTest::sessions_ = nullptr;

// ---------------------------------------------------------------------
// TrafficRouter: deterministic sticky bucketing.
// ---------------------------------------------------------------------

TEST_F(RolloutTest, BucketIsDeterministicInRangeAndModelIndependent) {
  int differs = 0;
  for (int64_t session = 0; session < 500; ++session) {
    const int bucket = TrafficRouter::Bucket("aw-moe", session);
    EXPECT_GE(bucket, 0);
    EXPECT_LT(bucket, TrafficRouter::kBuckets);
    EXPECT_EQ(bucket, TrafficRouter::Bucket("aw-moe", session));
    if (bucket != TrafficRouter::Bucket("dnn", session)) ++differs;
  }
  // The model name seeds the hash: two concurrent rollouts must not
  // ramp the same sessions in lockstep.
  EXPECT_GT(differs, 250);
}

TEST_F(RolloutTest, RouterDefaultsToStableAndHonoursSplit) {
  TrafficRouter router;
  EXPECT_EQ(router.split_permille("aw-moe"), 0);
  EXPECT_EQ(router.Route("aw-moe", 42), RolloutArm::kStable);

  router.SetSplit("aw-moe", 1000);
  EXPECT_EQ(router.Route("aw-moe", 42), RolloutArm::kCandidate);
  // Routes are per model: an unconfigured model stays stable.
  EXPECT_EQ(router.Route("dnn", 42), RolloutArm::kStable);

  router.SetSplit("aw-moe", 0);
  EXPECT_EQ(router.Route("aw-moe", 42), RolloutArm::kStable);
  router.ClearSplit("aw-moe");
  EXPECT_EQ(router.split_permille("aw-moe"), 0);
}

TEST_F(RolloutTest, RouterStickyAndMonotoneAcrossRamp) {
  TrafficRouter router;
  const std::vector<int> ramp = {10, 50, 250, 500, 1000};
  std::set<int64_t> previous;
  for (int permille : ramp) {
    router.SetSplit("aw-moe", permille);
    std::set<int64_t> candidates;
    for (int64_t session = 0; session < 400; ++session) {
      const RolloutArm arm = router.Route("aw-moe", session);
      // Sticky: the same split gives the same answer every time.
      EXPECT_EQ(arm, router.Route("aw-moe", session));
      if (arm == RolloutArm::kCandidate) candidates.insert(session);
    }
    // Monotone: raising the split only ever moves sessions stable ->
    // candidate; everyone on the candidate stays there.
    for (int64_t session : previous) {
      EXPECT_TRUE(candidates.count(session) > 0)
          << "session " << session << " left the candidate at " << permille;
    }
    EXPECT_GE(candidates.size(), previous.size());
    previous = std::move(candidates);
  }
  EXPECT_EQ(previous.size(), 400u);  // Split 1000 = everyone.
}

TEST_F(RolloutTest, RouteKeyRoundTripsBothArms) {
  EXPECT_EQ(EncodeRouteKey("aw-moe", RolloutArm::kStable), "aw-moe");
  const std::string candidate_key =
      EncodeRouteKey("aw-moe", RolloutArm::kCandidate);
  EXPECT_NE(candidate_key, "aw-moe");
  auto [stable_name, stable_arm] = DecodeRouteKey("aw-moe");
  EXPECT_EQ(stable_name, "aw-moe");
  EXPECT_EQ(stable_arm, RolloutArm::kStable);
  auto [candidate_name, candidate_arm] = DecodeRouteKey(candidate_key);
  EXPECT_EQ(candidate_name, "aw-moe");
  EXPECT_EQ(candidate_arm, RolloutArm::kCandidate);
}

// ---------------------------------------------------------------------
// ModelPool: two live pinned versions per model.
// ---------------------------------------------------------------------

TEST_F(RolloutTest, StageCandidateKeepsBothArmsLeasable) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));

  const int64_t version = pool.StageCandidate("aw-moe", model_b_->Clone());
  EXPECT_EQ(version, 2);
  EXPECT_TRUE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(pool.CandidateVersion("aw-moe"), 2);
  // Staging is not a stable publish: the default route still serves v1.
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 1);
  EXPECT_EQ(pool.swap_count(), 0);
  EXPECT_EQ(pool.live_snapshots(), 2);

  SnapshotLease stable = pool.Acquire("aw-moe", RolloutArm::kStable);
  SnapshotLease candidate = pool.Acquire("aw-moe", RolloutArm::kCandidate);
  EXPECT_EQ(stable.snapshot().version(), 1);
  EXPECT_EQ(stable.arm(), RolloutArm::kStable);
  EXPECT_EQ(candidate.snapshot().version(), 2);
  EXPECT_EQ(candidate.arm(), RolloutArm::kCandidate);
}

TEST_F(RolloutTest, CandidateAcquireFallsBackToStableAfterDrop) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  EXPECT_TRUE(pool.DropCandidate("aw-moe"));
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(pool.CandidateVersion("aw-moe"), 0);
  // No leases held: the dropped candidate retires immediately.
  EXPECT_EQ(pool.live_snapshots(), 1);

  SnapshotLease lease = pool.Acquire("aw-moe", RolloutArm::kCandidate);
  EXPECT_EQ(lease.snapshot().version(), 1);
  EXPECT_EQ(lease.arm(), RolloutArm::kStable);
  // Dropping again is a no-op, not an error.
  EXPECT_FALSE(pool.DropCandidate("aw-moe"));
}

TEST_F(RolloutTest, InFlightLeasePinsDroppedCandidate) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  {
    SnapshotLease lease = pool.Acquire("aw-moe", RolloutArm::kCandidate);
    pool.DropCandidate("aw-moe");
    // Rollback drains, not kills: the lease still pins the snapshot.
    EXPECT_EQ(pool.live_snapshots(), 2);
    EXPECT_EQ(lease.snapshot().version(), 2);
  }
  EXPECT_EQ(pool.live_snapshots(), 1);
}

TEST_F(RolloutTest, PromoteCandidateBecomesStableAndRetiresOldStable) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  EXPECT_EQ(pool.PromoteCandidate("aw-moe"), 2);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 2);
  EXPECT_EQ(pool.swap_count(), 1);  // A promote is a stable publish.
  EXPECT_EQ(pool.live_snapshots(), 1);
}

TEST_F(RolloutTest, DroppedVersionNumbersAreNeverReused) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  EXPECT_EQ(pool.StageCandidate("aw-moe", model_b_->Clone()), 2);
  pool.DropCandidate("aw-moe");
  // v2 was rolled back; its health history must not be inherited by the
  // next rollout, so the next candidate mints v3.
  EXPECT_EQ(pool.StageCandidate("aw-moe", model_b_->Clone()), 3);
  EXPECT_EQ(pool.PromoteCandidate("aw-moe"), 3);
  EXPECT_EQ(pool.UpdateModel("aw-moe", model_a_->Clone()), 4);
}

// ---------------------------------------------------------------------
// ServingEngine: both serving paths route through the TrafficRouter.
// ---------------------------------------------------------------------

TEST_F(RolloutTest, RankBatchServesArmsByRouterBitwise) {
  std::vector<std::vector<double>> want_a = ReferenceScores(model_a_);
  std::vector<std::vector<double>> want_b = ReferenceScores(model_b_);

  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  ServingEngine engine(&pool);
  engine.router()->SetSplit("aw-moe", 500);

  auto responses = engine.RankBatch(MakeSessionRequests(*sessions_));
  ASSERT_EQ(responses.size(), sessions_->size());
  int candidate_count = 0;
  for (size_t s = 0; s < responses.size(); ++s) {
    const RankResponse& response = responses[s];
    const RolloutArm want_arm =
        TrafficRouter::Bucket("aw-moe", response.session_id) < 500
            ? RolloutArm::kCandidate
            : RolloutArm::kStable;
    EXPECT_EQ(response.arm, want_arm) << "session " << s;
    EXPECT_EQ(response.model_version,
              want_arm == RolloutArm::kCandidate ? 2 : 1);
    ExpectVersionConsistent(response, s, want_a, want_b);
    if (response.arm == RolloutArm::kCandidate) ++candidate_count;
  }
  // A 50% split over 40 sessions lands strictly inside (0, 40) with
  // overwhelming probability under any reasonable hash.
  EXPECT_GT(candidate_count, 0);
  EXPECT_LT(candidate_count, static_cast<int>(responses.size()));
}

TEST_F(RolloutTest, ArmPolicyOverridesRouter) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  ServingEngine engine(&pool);
  // No router split: default traffic is all stable...
  RankResponse stable = engine.Rank(RequestFor(0));
  EXPECT_EQ(stable.arm, RolloutArm::kStable);
  EXPECT_EQ(stable.model_version, 1);
  // ...but a forced-candidate request reads the staged version (shadow
  // read), and a forced-stable one pins v1 even at split 1000.
  RankRequest force = RequestFor(0);
  force.arm_policy = ArmPolicy::kForceCandidate;
  RankResponse candidate = engine.Rank(force);
  EXPECT_EQ(candidate.arm, RolloutArm::kCandidate);
  EXPECT_EQ(candidate.model_version, 2);

  engine.router()->SetSplit("aw-moe", 1000);
  RankRequest pinned = RequestFor(0);
  pinned.arm_policy = ArmPolicy::kForceStable;
  RankResponse still_stable = engine.Rank(pinned);
  EXPECT_EQ(still_stable.arm, RolloutArm::kStable);
  EXPECT_EQ(still_stable.model_version, 1);

  // Forcing the candidate with none staged serves stable and says so.
  pool.DropCandidate("aw-moe");
  engine.router()->ClearSplit("aw-moe");
  RankResponse fallback = engine.Rank(force);
  EXPECT_EQ(fallback.arm, RolloutArm::kStable);
  EXPECT_EQ(fallback.model_version, 1);
}

TEST_F(RolloutTest, SubmitRoutesArmsThroughEncodedQueueKeys) {
  std::vector<std::vector<double>> want_a = ReferenceScores(model_a_);
  std::vector<std::vector<double>> want_b = ReferenceScores(model_b_);

  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  ServingEngine engine(&pool);
  engine.router()->SetSplit("aw-moe", 500);

  std::vector<std::future<RankResponse>> futures;
  for (size_t s = 0; s < sessions_->size(); ++s) {
    futures.push_back(engine.Submit(RequestFor(s)));
  }
  for (size_t s = 0; s < futures.size(); ++s) {
    RankResponse response = futures[s].get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.model, "aw-moe");  // Never the encoded key.
    const RolloutArm want_arm =
        TrafficRouter::Bucket("aw-moe", response.session_id) < 500
            ? RolloutArm::kCandidate
            : RolloutArm::kStable;
    EXPECT_EQ(response.arm, want_arm) << "session " << s;
    ExpectVersionConsistent(response, s, want_a, want_b);
  }
  engine.Stop();
}

TEST_F(RolloutTest, AsyncRejectionReportsModelNameNotRouteKey) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  ServingEngine engine(&pool);
  RankRequest empty;
  empty.session_id = 999;
  empty.arm_policy = ArmPolicy::kForceCandidate;  // Candidate route key.
  RankResponse response = engine.Submit(std::move(empty)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.model, "aw-moe");
  engine.Stop();
}

// ---------------------------------------------------------------------
// Per-version health windows.
// ---------------------------------------------------------------------

TEST_F(RolloutTest, VersionHealthTracksErrorsAndSlidingP99) {
  ServingStats stats;
  for (int i = 0; i < 90; ++i) stats.RecordVersionSample("m", 1, 1.0, true);
  for (int i = 0; i < 10; ++i) stats.RecordVersionSample("m", 1, 0.0, false);
  VersionHealthSnapshot health = stats.VersionHealth("m", 1);
  EXPECT_EQ(health.requests, 100);
  EXPECT_EQ(health.errors, 10);
  EXPECT_DOUBLE_EQ(health.error_rate, 0.1);
  EXPECT_EQ(health.window, 90);
  EXPECT_DOUBLE_EQ(health.p99_ms, 1.0);
  // Unknown versions report zeros instead of inventing health.
  EXPECT_EQ(stats.VersionHealth("m", 7).requests, 0);

  // The window slides: after kHealthWindow newer fast samples, the old
  // slow tail has aged out entirely.
  ServingStats sliding;
  for (int i = 0; i < 100; ++i) sliding.RecordVersionSample("m", 1, 50.0, true);
  for (int64_t i = 0; i < ServingStats::kHealthWindow; ++i) {
    sliding.RecordVersionSample("m", 1, 1.0, true);
  }
  health = sliding.VersionHealth("m", 1);
  EXPECT_EQ(health.window, ServingStats::kHealthWindow);
  EXPECT_DOUBLE_EQ(health.p99_ms, 1.0);
}

TEST_F(RolloutTest, HealthWindowRefusesToResurrectTrimmedVersions) {
  ServingStats stats;
  // Fill the per-model cap with versions 2..9...
  for (int64_t v = 2; v <= 1 + ServingStats::kMaxVersionsPerModel; ++v) {
    stats.RecordVersionSample("m", v, 1.0, true);
  }
  // ...then a straggler sample for v1 (older than everything retained):
  // it must be dropped, not resurrect a window by evicting a newer one
  // (and must not touch freed map nodes — the ASan job watches this).
  stats.RecordVersionSample("m", 1, 1.0, true);
  EXPECT_EQ(stats.VersionHealth("m", 1).requests, 0);
  for (int64_t v = 2; v <= 1 + ServingStats::kMaxVersionsPerModel; ++v) {
    EXPECT_EQ(stats.VersionHealth("m", v).requests, 1) << "version " << v;
  }
}

TEST_F(RolloutTest, BackpressureRejectCountsAgainstRoutedArmHealth) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  ServingEngineOptions options;
  options.max_pending_requests = 1;
  ServingEngine engine(&pool, options);
  // A blocker parked on the held stable lane keeps the flush lane busy:
  // one queued request then fills the queue, so the next Submit
  // deterministically trips backpressure.
  LaneHold hold(pool, "aw-moe");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(2));

  std::future<RankResponse> queued = engine.Submit(RequestFor(0));
  RankRequest rejected = RequestFor(1);
  rejected.arm_policy = ArmPolicy::kForceCandidate;
  RankResponse response = engine.Submit(std::move(rejected)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  // The reject was routed at the candidate arm: it lands in v2's health
  // window, where the rollout error-rate gate reads it.
  EXPECT_EQ(engine.stats().VersionHealth("aw-moe", 2).errors, 1);
  EXPECT_EQ(engine.stats().VersionHealth("aw-moe", 2).requests, 1);
  EXPECT_EQ(engine.stats().VersionHealth("aw-moe", 1).errors, 0);

  hold.Release();
  engine.Stop(/*drain=*/true);  // Scores the queued request.
  EXPECT_TRUE(blocker.get().status.ok());
  EXPECT_TRUE(queued.get().status.ok());
}

TEST_F(RolloutTest, EngineFeedsHealthWindowsPerVersion) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  pool.StageCandidate("aw-moe", model_b_->Clone());
  ServingEngine engine(&pool);
  engine.router()->SetSplit("aw-moe", 500);
  auto responses = engine.RankBatch(MakeSessionRequests(*sessions_));
  int64_t candidate_count = 0;
  for (const RankResponse& response : responses) {
    if (response.arm == RolloutArm::kCandidate) ++candidate_count;
  }
  const ServingStats& stats = engine.stats();
  EXPECT_EQ(stats.VersionHealth("aw-moe", 2).requests, candidate_count);
  EXPECT_EQ(stats.VersionHealth("aw-moe", 1).requests,
            static_cast<int64_t>(responses.size()) - candidate_count);
  EXPECT_GT(stats.VersionHealth("aw-moe", 1).p99_ms, 0.0);
  // The full snapshot carries both windows too.
  EXPECT_EQ(engine.Stats().version_health.size(), 2u);
}

// ---------------------------------------------------------------------
// RolloutController: health gates.
// ---------------------------------------------------------------------

TEST_F(RolloutTest, ControllerHoldsStageUntilEvidence) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {500, 1000};
  options.min_stage_requests = 20;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  EXPECT_EQ(controller.state(), RolloutState::kIdle);

  const int64_t version = controller.Begin(model_b_->Clone());
  EXPECT_EQ(version, 2);
  EXPECT_EQ(controller.state(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 0);
  EXPECT_EQ(router.split_permille("aw-moe"), 500);

  // No candidate traffic yet: the gate must hold, not promote.
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 0);
  EXPECT_NE(controller.last_decision().find("holding"), std::string::npos);
}

TEST_F(RolloutTest, ControllerWalksRampAndPromotesWhenHealthy) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {250, 500, 1000};
  options.min_stage_requests = 20;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  for (int i = 0; i < 50; ++i) stats.RecordVersionSample("aw-moe", 1, 1.0, true);
  auto feed_candidate = [&stats](int n) {
    for (int i = 0; i < n; ++i) {
      stats.RecordVersionSample("aw-moe", 2, 1.1, true);
    }
  };
  feed_candidate(20);
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 1);
  EXPECT_EQ(router.split_permille("aw-moe"), 500);

  // Stage evidence resets per stage: without fresh candidate traffic
  // the next tick holds at stage 1.
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 1);

  feed_candidate(20);
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 2);
  EXPECT_EQ(router.split_permille("aw-moe"), 1000);

  feed_candidate(20);
  EXPECT_EQ(controller.Advance(), RolloutState::kPromoted);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 2);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(router.split_permille("aw-moe"), 0);
  EXPECT_EQ(controller.stable_version(), 2);
  EXPECT_NE(controller.last_decision().find("promoted"), std::string::npos);
  // Ticking a finished rollout is a no-op.
  EXPECT_EQ(controller.Advance(), RolloutState::kPromoted);
}

TEST_F(RolloutTest, ControllerRollsBackOnErrorRate) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {500, 1000};
  options.min_stage_requests = 20;
  options.max_error_rate = 0.05;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  for (int i = 0; i < 15; ++i) stats.RecordVersionSample("aw-moe", 2, 1.0, true);
  for (int i = 0; i < 5; ++i) stats.RecordVersionSample("aw-moe", 2, 0.0, false);
  EXPECT_EQ(controller.Advance(), RolloutState::kRolledBack);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(router.split_permille("aw-moe"), 0);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 1);
  EXPECT_NE(controller.last_decision().find("error rate"), std::string::npos);
}

TEST_F(RolloutTest, LateStageErrorBurstTripsGateDespiteHealthyHistory) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {500, 1000};
  options.min_stage_requests = 20;
  options.max_error_rate = 0.05;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  // Stage 0: a long healthy history (1000 ok requests).
  for (int i = 0; i < 1000; ++i) {
    stats.RecordVersionSample("aw-moe", 2, 1.0, true);
  }
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 1);

  // Stage 1: the candidate starts failing under full load. Lifetime
  // error rate is 20/1020 < 5%, but the STAGE is 100% failures — the
  // gate must trip on the stage, not the diluted lifetime.
  for (int i = 0; i < 20; ++i) {
    stats.RecordVersionSample("aw-moe", 2, 0.0, false);
  }
  EXPECT_EQ(controller.Advance(), RolloutState::kRolledBack);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_NE(controller.last_decision().find("error rate"), std::string::npos);
}

TEST_F(RolloutTest, ControllerRollsBackOnP99Regression) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {500, 1000};
  options.min_stage_requests = 20;
  options.max_p99_ratio = 1.5;
  options.p99_slack_ms = 1.0;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  for (int i = 0; i < 50; ++i) stats.RecordVersionSample("aw-moe", 1, 1.0, true);
  // Candidate p99 of 100ms vs a budget of 1.0 * 1.5 + 1.0 = 2.5ms.
  for (int i = 0; i < 20; ++i) {
    stats.RecordVersionSample("aw-moe", 2, 100.0, true);
  }
  EXPECT_EQ(controller.Advance(), RolloutState::kRolledBack);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_NE(controller.last_decision().find("p99"), std::string::npos);
  // A rolled-back controller can run the next rollout: v3, not v2 again.
  EXPECT_EQ(controller.Begin(model_b_->Clone()), 3);
}

// ---------------------------------------------------------------------
// RolloutController: the accuracy-drift gate (PR 9). Samples are fed by
// hand here; tests/serving/retrain_driver_test.cc covers the shadow-
// scoring loop that feeds them in production.
// ---------------------------------------------------------------------

TEST_F(RolloutTest, DriftGateHoldsUntilBothArmsHaveEvidence) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {500, 1000};
  options.min_stage_requests = 10;
  options.min_drift_sessions = 25;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  auto feed_latency = [&stats](int64_t version, int n) {
    for (int i = 0; i < n; ++i) {
      stats.RecordVersionSample("aw-moe", version, 1.0, true);
    }
  };
  feed_latency(1, 20);
  feed_latency(2, 20);
  // Latency/error evidence is in, drift evidence is not: hold.
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 0);
  EXPECT_NE(controller.last_decision().find("drift evidence"),
            std::string::npos);

  // Candidate-only evidence still holds: the gate compares arms, so it
  // needs BOTH sides before it may pass judgement.
  for (int i = 0; i < 30; ++i) stats.RecordDriftSample("aw-moe", 2, true);
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 0);
  EXPECT_NE(controller.last_decision().find("drift evidence"),
            std::string::npos);

  // Stable evidence arrives and the arms are equally engaged: advance.
  for (int i = 0; i < 30; ++i) stats.RecordDriftSample("aw-moe", 1, true);
  feed_latency(2, 10);  // Fresh stage evidence for the latency gates.
  EXPECT_EQ(controller.Advance(), RolloutState::kRamping);
  EXPECT_EQ(controller.stage(), 1);

  // The counters surface everywhere the gate's inputs are observable.
  EXPECT_EQ(stats.VersionHealth("aw-moe", 2).drift_sessions, 30);
  EXPECT_EQ(stats.VersionHealth("aw-moe", 2).drift_engaged, 30);
  EXPECT_DOUBLE_EQ(stats.VersionHealth("aw-moe", 2).drift_engaged_rate, 1.0);
  EXPECT_EQ(stats.Snapshot().drift_sessions, 60);
}

TEST_F(RolloutTest, DriftGateRollsBackRegressedEngagement) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {500, 1000};
  options.min_stage_requests = 10;
  options.min_drift_sessions = 20;
  options.max_engagement_drop = 0.05;
  options.engagement_slack = 0.02;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  for (int i = 0; i < 20; ++i) {
    stats.RecordVersionSample("aw-moe", 1, 1.0, true);
    stats.RecordVersionSample("aw-moe", 2, 1.0, true);
  }
  // Stable engages 90% of shadow sessions, the candidate only 40% —
  // far below the floor 0.90 * 0.95 - 0.02 = 0.835.
  for (int i = 0; i < 50; ++i) stats.RecordDriftSample("aw-moe", 1, i < 45);
  for (int i = 0; i < 50; ++i) stats.RecordDriftSample("aw-moe", 2, i < 20);
  EXPECT_EQ(controller.Advance(), RolloutState::kRolledBack);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 1);
  EXPECT_EQ(router.split_permille("aw-moe"), 0);
  EXPECT_NE(controller.last_decision().find("engagement"), std::string::npos);
}

TEST_F(RolloutTest, DriftGatePassesComparableEngagementToPromotion) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  TrafficRouter router;
  ServingStats stats;
  RolloutOptions options;
  options.ramp_permille = {1000};
  options.min_stage_requests = 10;
  options.min_drift_sessions = 20;
  options.max_engagement_drop = 0.05;
  options.engagement_slack = 0.02;
  RolloutController controller(&pool, &router, &stats, "aw-moe", options);
  controller.Begin(model_b_->Clone());

  for (int i = 0; i < 20; ++i) {
    stats.RecordVersionSample("aw-moe", 1, 1.0, true);
    stats.RecordVersionSample("aw-moe", 2, 1.0, true);
  }
  // Candidate 78% vs stable 80%: inside the tolerated drop (floor
  // 0.80 * 0.95 - 0.02 = 0.74), so a small wobble does not kill it.
  for (int i = 0; i < 50; ++i) stats.RecordDriftSample("aw-moe", 1, i < 40);
  for (int i = 0; i < 50; ++i) stats.RecordDriftSample("aw-moe", 2, i < 39);
  EXPECT_EQ(controller.Advance(), RolloutState::kPromoted);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 2);
  EXPECT_EQ(controller.stable_version(), 2);
}

// ---------------------------------------------------------------------
// Acceptance storms: a full ramp under concurrent Submit() load.
// ---------------------------------------------------------------------

/// Per-session phase machine for the storm assertions: during a healthy
/// ramp a session may only move stable@v1 -> candidate@v2 ->
/// (post-promote) stable@v2; during a rolled-back ramp only stable@v1
/// -> candidate@v2 -> (post-rollback) stable@v1. Any other transition
/// breaks stickiness, monotonicity, or whole-response consistency.
struct SessionPhase {
  int phase = 0;
};

TEST_F(RolloutTest, FullRampAutoPromotesUnderSubmitStorm) {
  std::vector<std::vector<double>> want_a = ReferenceScores(model_a_);
  std::vector<std::vector<double>> want_b = ReferenceScores(model_b_);

  ModelPoolOptions pool_options;
  pool_options.replicas = 2;
  ModelPool pool(data_->meta, standardizer_, pool_options);
  pool.Register("aw-moe", model_a_);
  ServingEngine engine(&pool);

  RolloutOptions rollout_options;
  rollout_options.ramp_permille = {250, 500, 1000};
  rollout_options.min_stage_requests = 25;
  // Permissive latency gate: this storm tests the mechanics, not the
  // 1-core container's scheduling jitter.
  rollout_options.max_p99_ratio = 50.0;
  rollout_options.p99_slack_ms = 500.0;
  RolloutController controller(&pool, engine.router(), &engine.stats(),
                               "aw-moe", rollout_options);

  constexpr size_t kThreads = 4;
  constexpr size_t kSubmitsPerThread = 150;
  std::vector<std::vector<RankResponse>> results(
      kThreads, std::vector<RankResponse>(kSubmitsPerThread));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    // Sessions are partitioned by thread (s = t + m*kThreads), so each
    // session's responses arrive in that thread's submit order.
    threads.emplace_back([t, &engine, &results] {
      for (size_t m = 0; m < kSubmitsPerThread; ++m) {
        results[t][m] = engine.Submit(RequestFor(t + m * kThreads)).get();
      }
    });
  }

  controller.Begin(model_b_->Clone());
  // Drive the ramp while the storm runs...
  while (controller.state() == RolloutState::kRamping &&
         engine.stats().requests() <
             static_cast<int64_t>(kThreads * kSubmitsPerThread)) {
    controller.Advance();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& thread : threads) thread.join();
  // ...then top up with synchronous routed traffic until it completes
  // (the storm may have finished before the last stage gathered its
  // evidence). Bounded: each round adds a full session sweep.
  std::vector<std::vector<RankResponse>> extra_rounds;
  for (int round = 0;
       controller.state() == RolloutState::kRamping && round < 200; ++round) {
    extra_rounds.push_back(engine.RankBatch(MakeSessionRequests(*sessions_)));
    controller.Advance();
  }
  engine.Stop(/*drain=*/true);

  ASSERT_EQ(controller.state(), RolloutState::kPromoted)
      << controller.last_decision();
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 2);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(engine.router()->split_permille("aw-moe"), 0);
  // Promote retired v1 and kept v2: traffic drained, no snapshot leaks.
  EXPECT_EQ(pool.live_snapshots(), 1);

  // Whole-response version consistency + the sticky/monotone phase
  // machine over every response, in per-session order.
  std::map<int64_t, SessionPhase> phases;
  int64_t candidate_hits = 0;
  auto check = [&](const RankResponse& response, size_t session_index) {
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_GE(response.model_version, 1);
    ASSERT_LE(response.model_version, 2);
    ExpectVersionConsistent(response, session_index, want_a, want_b);
    SessionPhase& phase = phases[response.session_id];
    if (response.arm == RolloutArm::kCandidate) {
      ASSERT_EQ(response.model_version, 2);
      ASSERT_LE(phase.phase, 1) << "candidate served after promote";
      phase.phase = 1;
      ++candidate_hits;
    } else if (response.model_version == 1) {
      ASSERT_EQ(phase.phase, 0)
          << "session " << response.session_id
          << " fell back to stable v1 after reaching the candidate";
    } else {
      phase.phase = 2;  // Post-promote stable v2.
    }
  };
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t m = 0; m < kSubmitsPerThread; ++m) {
      check(results[t][m], t + m * kThreads);
    }
  }
  for (const auto& round : extra_rounds) {
    for (size_t s = 0; s < round.size(); ++s) check(round[s], s);
  }
  // The ramp actually moved sessions onto the candidate before promote.
  EXPECT_GT(candidate_hits, 0);
}

TEST_F(RolloutTest, ForcedRollbackDrainsCandidateUnderSubmitStorm) {
  std::vector<std::vector<double>> want_a = ReferenceScores(model_a_);
  std::vector<std::vector<double>> want_b = ReferenceScores(model_b_);

  ModelPoolOptions pool_options;
  pool_options.replicas = 2;
  ModelPool pool(data_->meta, standardizer_, pool_options);
  pool.Register("aw-moe", model_a_);
  ServingEngine engine(&pool);

  RolloutOptions rollout_options;
  rollout_options.ramp_permille = {500, 1000};
  rollout_options.min_stage_requests = 10;
  rollout_options.max_p99_ratio = 50.0;
  rollout_options.p99_slack_ms = 500.0;
  RolloutController controller(&pool, engine.router(), &engine.stats(),
                               "aw-moe", rollout_options);

  constexpr size_t kThreads = 4;
  constexpr size_t kSubmitsPerThread = 120;
  std::vector<std::vector<RankResponse>> results(
      kThreads, std::vector<RankResponse>(kSubmitsPerThread));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &engine, &results] {
      for (size_t m = 0; m < kSubmitsPerThread; ++m) {
        results[t][m] = engine.Submit(RequestFor(t + m * kThreads)).get();
      }
    });
  }

  controller.Begin(model_b_->Clone());
  // Let the candidate take real traffic mid-storm, then force the
  // rollback an operator would on a misbehaving model.
  while (engine.stats().VersionHealth("aw-moe", 2).requests < 20) {
    std::this_thread::yield();
  }
  EXPECT_EQ(controller.Rollback("operator abort"),
            RolloutState::kRolledBack);
  for (std::thread& thread : threads) thread.join();
  engine.Stop(/*drain=*/true);

  EXPECT_EQ(controller.state(), RolloutState::kRolledBack);
  EXPECT_FALSE(pool.HasCandidate("aw-moe"));
  EXPECT_EQ(engine.router()->split_permille("aw-moe"), 0);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(), 1);
  EXPECT_EQ(pool.swap_count(), 0);  // Nothing was ever promoted.
  // THE drain check: every candidate lease released, the dropped
  // snapshot retired, only stable v1 remains alive.
  EXPECT_EQ(pool.live_snapshots(), 1);

  // Phase machine with rollback: stable@v1 -> candidate@v2 -> back to
  // stable@v1 is legal; candidate traffic after the rollback is not
  // (in-flight flushes excepted — they hold pre-rollback leases, which
  // is exactly the drain semantics, so they count as phase 1).
  std::map<int64_t, SessionPhase> phases;
  int64_t candidate_hits = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t m = 0; m < kSubmitsPerThread; ++m) {
      const RankResponse& response = results[t][m];
      ASSERT_TRUE(response.status.ok()) << response.status;
      ExpectVersionConsistent(response, t + m * kThreads, want_a, want_b);
      SessionPhase& phase = phases[response.session_id];
      if (response.arm == RolloutArm::kCandidate) {
        ASSERT_EQ(response.model_version, 2);
        ASSERT_LE(phase.phase, 1);
        phase.phase = std::max(phase.phase, 1);
        ++candidate_hits;
      } else {
        ASSERT_EQ(response.model_version, 1);
        if (phase.phase == 1) phase.phase = 2;
      }
    }
  }
  EXPECT_GT(candidate_hits, 0);
}

// ---------------------------------------------------------------------
// The online replay mode (§IV-E style).
// ---------------------------------------------------------------------

TEST_F(RolloutTest, ReplayRolloutWalksRampToPromotion) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  ServingEngine engine(&pool);
  RolloutOptions options;
  options.ramp_permille = {250, 1000};
  options.min_stage_requests = 10;
  options.max_p99_ratio = 50.0;
  options.p99_slack_ms = 500.0;
  RolloutController controller(&pool, engine.router(), &engine.stats(),
                               "aw-moe", options);
  controller.Begin(model_b_->Clone());

  RolloutReplayResult replay =
      ReplayRollout(&engine, &controller, *sessions_, /*max_rounds=*/64);
  EXPECT_EQ(replay.final_state, RolloutState::kPromoted);
  EXPECT_EQ(replay.candidate_version, 2);
  EXPECT_EQ(replay.final_stable_version, 2);
  ASSERT_GE(replay.rounds.size(), 2u);
  EXPECT_EQ(replay.rounds.front().split_permille, 250);
  EXPECT_EQ(replay.rounds.back().split_permille, 1000);
  EXPECT_GT(replay.total_candidate_requests, 0);
  EXPECT_LT(replay.total_candidate_requests, replay.total_requests);
  // The last round served everyone on the candidate.
  EXPECT_EQ(replay.rounds.back().stable_requests, 0);
  EXPECT_EQ(replay.rounds.back().candidate_requests,
            static_cast<int64_t>(sessions_->size()));
  EXPECT_NE(replay.rounds.back().decision.find("promoted"),
            std::string::npos);
}

}  // namespace
}  // namespace awmoe
