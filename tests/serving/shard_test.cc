// Sharded fleet serving (serving/shard.h): consistent-hash ring
// invariants, deadline-aware admission math, and whole-fleet behaviour
// — bitwise score parity with a single engine, fan-out of model
// operations, topology changes, and snapshot leak checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/model_dims.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/shard.h"
#include "malformed_items.h"

namespace awmoe {
namespace {

// ---------------------------------------------------------------------
// ShardRouter: the consistent-hash ring.
// ---------------------------------------------------------------------

constexpr int kProbeSessions = 20000;

std::vector<int> Placements(const ShardRouter& router, int sessions) {
  std::vector<int> placed(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    placed[static_cast<size_t>(s)] = router.ShardFor(s);
  }
  return placed;
}

TEST(ShardRouterTest, DeterministicAndSticky) {
  ShardRouter a;
  ShardRouter b;
  for (int id = 0; id < 4; ++id) {
    a.AddShard(id);
    b.AddShard(id);
  }
  // Same shard set -> same placement, across instances and across
  // repeated queries of one instance.
  for (int s = 0; s < 1000; ++s) {
    const int shard = a.ShardFor(s);
    EXPECT_EQ(shard, b.ShardFor(s));
    EXPECT_EQ(shard, a.ShardFor(s));
  }
}

TEST(ShardRouterTest, EveryShardGetsTraffic) {
  ShardRouter router;
  for (int id = 0; id < 4; ++id) router.AddShard(id);
  std::map<int, int> counts;
  for (int placed : Placements(router, kProbeSessions)) ++counts[placed];
  ASSERT_EQ(counts.size(), 4u);
  // 64 vnodes/shard keeps the split coarse but bounded: no shard should
  // see more than twice its fair share or less than a third of it.
  const int fair = kProbeSessions / 4;
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, fair / 3) << "shard " << shard;
    EXPECT_LT(count, 2 * fair) << "shard " << shard;
  }
}

TEST(ShardRouterTest, AddShardMovesSessionsOnlyToTheNewShard) {
  ShardRouter router;
  for (int id = 0; id < 3; ++id) router.AddShard(id);
  const std::vector<int> before = Placements(router, kProbeSessions);
  router.AddShard(3);
  const std::vector<int> after = Placements(router, kProbeSessions);
  int moved = 0;
  for (int s = 0; s < kProbeSessions; ++s) {
    if (after[s] != before[s]) {
      // The defining rebalance invariant: a session either stays put or
      // moves to the shard that just joined — never between survivors.
      EXPECT_EQ(after[s], 3) << "session " << s << " moved " << before[s]
                             << " -> " << after[s];
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  // ~K/N of the keys move (1/4 here); allow 2x slack for vnode variance.
  EXPECT_LT(moved, kProbeSessions / 2);
}

TEST(ShardRouterTest, RemoveShardMovesOnlyItsOwnSessions) {
  ShardRouter router;
  for (int id = 0; id < 4; ++id) router.AddShard(id);
  const std::vector<int> before = Placements(router, kProbeSessions);
  ASSERT_TRUE(router.RemoveShard(2));
  const std::vector<int> after = Placements(router, kProbeSessions);
  std::set<int> new_homes;
  for (int s = 0; s < kProbeSessions; ++s) {
    if (before[s] == 2) {
      EXPECT_NE(after[s], 2);
      new_homes.insert(after[s]);
    } else {
      // Survivors' sessions never move.
      EXPECT_EQ(after[s], before[s]) << "session " << s;
    }
  }
  // The orphans scatter over the survivors instead of dog-piling one
  // neighbour (that is what the virtual nodes buy).
  EXPECT_GT(new_homes.size(), 1u);
}

TEST(ShardRouterTest, RemoveUnknownShardReturnsFalse) {
  ShardRouter router;
  router.AddShard(0);
  EXPECT_FALSE(router.RemoveShard(99));
  EXPECT_TRUE(router.HasShard(0));
  EXPECT_FALSE(router.HasShard(99));
  EXPECT_EQ(router.num_shards(), 1);
  EXPECT_EQ(router.shard_ids(), std::vector<int>{0});
}

// ---------------------------------------------------------------------
// Admission control math.
// ---------------------------------------------------------------------

ShardLoad MakeLoad(int64_t pending, double mean_service_ms, int lanes = 1) {
  ShardLoad load;
  load.pending_requests = pending;
  load.mean_service_ms = mean_service_ms;
  load.flush_lanes = lanes;
  return load;
}

TEST(MeanServiceEstimatorTest, MeasuresPerRequestDeltas) {
  MeanServiceEstimator est;
  EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
  // First window: 10 requests, 20 ms => 2 ms/request.
  EXPECT_DOUBLE_EQ(est.Update(10, 20.0), 2.0);
  // Next window only measures the delta: 5 more requests, 25 more ms.
  EXPECT_DOUBLE_EQ(est.Update(15, 45.0), 5.0);
  EXPECT_DOUBLE_EQ(est.estimate(), 5.0);
}

TEST(MeanServiceEstimatorTest, IdleWindowKeepsEstimate) {
  MeanServiceEstimator est;
  est.Update(10, 20.0);
  // Zero completed requests in the refresh window (idle shard): the
  // naive delta division would be 0/0 = NaN. Keep the last estimate.
  const double kept = est.Update(10, 20.0);
  EXPECT_FALSE(std::isnan(kept));
  EXPECT_DOUBLE_EQ(kept, 2.0);
  // And the idle window must not poison the next real one.
  EXPECT_DOUBLE_EQ(est.Update(14, 32.0), 3.0);
}

TEST(MeanServiceEstimatorTest, BackwardsCountersResyncBaseline) {
  MeanServiceEstimator est;
  est.Update(100, 400.0);
  // The engine's stats were reset underneath the estimator: counters
  // jump backwards. The estimate survives, and crucially the baseline
  // resyncs — the next window measures fresh deltas instead of waiting
  // for the counters to catch their old values back up.
  EXPECT_DOUBLE_EQ(est.Update(0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(est.Update(10, 60.0), 6.0);
}

TEST(MeanServiceEstimatorTest, NegativeServiceDeltaClampsAtZero) {
  MeanServiceEstimator est;
  est.Update(10, 50.0);
  // Requests advanced but accumulated service went backwards (reset
  // mid-window): treated as a resync, not a negative estimate.
  const double out = est.Update(12, 10.0);
  EXPECT_GE(out, 0.0);
  EXPECT_FALSE(std::isnan(out));
  // Fresh deltas from the resynced baseline.
  EXPECT_DOUBLE_EQ(est.Update(14, 16.0), 3.0);
}

TEST(MeanServiceEstimatorTest, ResetClearsEverything) {
  MeanServiceEstimator est;
  est.Update(10, 20.0);
  est.Reset();
  EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
  EXPECT_DOUBLE_EQ(est.Update(4, 12.0), 3.0);
}

TEST(AdmissionTest, QueueDelayEstimateIsLittlesLaw) {
  EXPECT_DOUBLE_EQ(EstimateQueueDelayMs(MakeLoad(10, 2.0, 1)), 20.0);
  EXPECT_DOUBLE_EQ(EstimateQueueDelayMs(MakeLoad(10, 2.0, 2)), 10.0);
  EXPECT_DOUBLE_EQ(EstimateQueueDelayMs(MakeLoad(0, 2.0, 1)), 0.0);
  // Lane count is clamped to >= 1 rather than dividing by zero.
  EXPECT_DOUBLE_EQ(EstimateQueueDelayMs(MakeLoad(4, 1.0, 0)), 4.0);
}

AdmissionOptions ExactOptions() {
  AdmissionOptions options;
  options.default_deadline_ms = 10.0;
  options.estimate_safety = 1.0;  // Pin the math: no conservative bias.
  options.max_shed_rate = 1.0;    // Pure shedding, no degraded mode.
  return options;
}

TEST(AdmissionTest, AdmitsUnderDeadlineShedsOver) {
  AdmissionController admission(ExactOptions());
  // Estimated sojourn = 4*2 + 2 = 10 <= 10: admitted.
  EXPECT_EQ(admission.Decide(MakeLoad(4, 2.0), 0.0),
            AdmissionDecision::kAdmit);
  // 5*2 + 2 = 12 > 10: shed.
  EXPECT_EQ(admission.Decide(MakeLoad(5, 2.0), 0.0),
            AdmissionDecision::kShed);
  EXPECT_EQ(admission.admitted(), 1);
  EXPECT_EQ(admission.shed(), 1);
  EXPECT_EQ(admission.degraded(), 0);
  EXPECT_DOUBLE_EQ(admission.window_shed_rate(), 0.5);
}

TEST(AdmissionTest, RequestDeadlineOverridesDefault) {
  AdmissionController admission(ExactOptions());
  const ShardLoad heavy = MakeLoad(10, 2.0);  // Sojourn 22ms.
  EXPECT_EQ(admission.Decide(heavy, 30.0), AdmissionDecision::kAdmit);
  EXPECT_EQ(admission.Decide(heavy, 21.0), AdmissionDecision::kShed);
  // deadline_ms <= 0 falls back to the 10ms default.
  EXPECT_EQ(admission.Decide(heavy, 0.0), AdmissionDecision::kShed);
}

TEST(AdmissionTest, SafetyFactorBiasesTowardShedding) {
  AdmissionOptions options = ExactOptions();
  options.estimate_safety = 2.0;
  AdmissionController admission(options);
  // Raw sojourn 2*2 + 2 = 6 <= 10, but widened 2x -> 12 > 10: shed.
  EXPECT_EQ(admission.Decide(MakeLoad(2, 2.0), 0.0),
            AdmissionDecision::kShed);
  AdmissionController trusting(ExactOptions());
  EXPECT_EQ(trusting.Decide(MakeLoad(2, 2.0), 0.0),
            AdmissionDecision::kAdmit);
}

TEST(AdmissionTest, DegradedFloorBoundsTheShedRate) {
  AdmissionOptions options = ExactOptions();
  options.max_shed_rate = 0.5;
  options.shed_window = 8;
  AdmissionController admission(options);
  const ShardLoad hopeless = MakeLoad(100, 2.0);  // Always over deadline.
  for (int i = 0; i < 200; ++i) admission.Decide(hopeless, 0.0);
  // Everything is over-deadline, yet the floor converts half of the
  // would-be sheds into degraded admits: the fleet never goes dark.
  EXPECT_EQ(admission.admitted(), 0);
  EXPECT_GT(admission.degraded(), 0);
  EXPECT_GT(admission.shed(), 0);
  EXPECT_LE(admission.window_shed_rate(), 0.5 + 1e-9);
  EXPECT_NEAR(static_cast<double>(admission.shed()) / 200.0, 0.5, 0.1);
  admission.Reset();
  EXPECT_EQ(admission.shed(), 0);
  EXPECT_DOUBLE_EQ(admission.window_shed_rate(), 0.0);
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionOptions options = ExactOptions();
  options.enabled = false;
  AdmissionController admission(options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(admission.Decide(MakeLoad(1000, 5.0), 0.001),
              AdmissionDecision::kAdmit);
  }
  EXPECT_EQ(admission.admitted(), 10);
  EXPECT_DOUBLE_EQ(admission.window_shed_rate(), 0.0);
}

// ---------------------------------------------------------------------
// ShardedServingFleet.
// ---------------------------------------------------------------------

AwMoeConfig SmallAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

class ShardedFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.num_users = 300;
    jd.num_items = 200;
    jd.num_categories = 8;
    jd.brands_per_category = 4;
    jd.num_shops = 15;
    jd.train_sessions = 80;
    jd.test_sessions = 48;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 77;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng(5);
    model_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng);
    Rng rng2(12);
    second_model_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng2);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete standardizer_;
    delete model_;
    delete second_model_;
    data_ = nullptr;
    standardizer_ = nullptr;
    model_ = nullptr;
    second_model_ = nullptr;
  }

  static std::unique_ptr<ShardedServingFleet> MakeFleet(
      int shards, bool admission_enabled = false) {
    FleetOptions options;
    options.num_shards = shards;
    options.admission.enabled = admission_enabled;
    auto fleet = std::make_unique<ShardedServingFleet>(
        data_->meta, standardizer_, options);
    fleet->RegisterOwned("aw-moe", model_->Clone());
    return fleet;
  }

  static std::vector<RankRequest> FixtureRequests() {
    auto sessions = GroupBySession(data_->full_test);
    return MakeSessionRequests(sessions);
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* model_;
  static AwMoeRanker* second_model_;
};

JdDataset* ShardedFleetTest::data_ = nullptr;
Standardizer* ShardedFleetTest::standardizer_ = nullptr;
AwMoeRanker* ShardedFleetTest::model_ = nullptr;
AwMoeRanker* ShardedFleetTest::second_model_ = nullptr;

TEST_F(ShardedFleetTest, SubmitStormMatchesSingleEngineBitwise) {
  auto fleet = MakeFleet(4);
  const std::vector<RankRequest> requests = FixtureRequests();

  // Reference: one plain engine over its own clone of the same master.
  ModelPool reference_pool(data_->meta, standardizer_);
  reference_pool.RegisterOwned("aw-moe", model_->Clone());
  ServingEngine reference(&reference_pool);

  // 4-thread Submit storm; every shard pool holds an exact clone, so
  // scores must be bitwise independent of the shard count.
  std::vector<std::vector<std::future<RankResponse>>> futures(4);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 4; ++c) {
    threads.emplace_back([c, &fleet, &requests, &futures] {
      for (size_t r = c; r < requests.size(); r += 4) {
        futures[c].push_back(fleet->Submit(requests[r]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < 4; ++c) {
    size_t r = c;
    for (std::future<RankResponse>& future : futures[c]) {
      const RankResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      const RankResponse expected = reference.Rank(requests[r]);
      ASSERT_EQ(response.scores.size(), expected.scores.size());
      for (size_t i = 0; i < expected.scores.size(); ++i) {
        EXPECT_EQ(response.scores[i], expected.scores[i])
            << "request " << r << " item " << i;
      }
      r += 4;
    }
  }

  // Traffic landed on the session's ring shard and nowhere else.
  const FleetStats stats = fleet->Stats();
  EXPECT_EQ(stats.merged.requests,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.admitted, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.shed, 0);
  EXPECT_GT(stats.imbalance, 0.0);
  fleet->Stop();
  reference.Stop();
  // Leak check: one live snapshot per shard pool (single stable arm).
  EXPECT_EQ(fleet->live_snapshots(), 4);
}

// search_fresh's end-to-end verification in tier 1: a Submit storm of
// fresh 12-candidate pages over a ModelDims::Default model, on a 2-shard
// fleet that fuses requests into 64-item micro-batches, must match a
// single-replica engine with every cache off bit for bit (memcmp, so a
// -0 against a +0 counts). Sessions have zero, one or all seq_len
// behaviours valid, so each micro-batch mixes every stack shape.
TEST_F(ShardedFleetTest, FreshPageStormMatchesCachesOffEngineBitwise) {
  AwMoeConfig config;
  config.dims = ModelDims::Default();
  Rng rng(21);
  const AwMoeRanker model(data_->meta, config, &rng);

  FleetOptions options;
  options.num_shards = 2;
  options.engine.max_batch_items = 64;
  options.engine.async_flush_lanes = 1;
  // Every request must be scored, however slow the tier: no shedding.
  options.admission.enabled = false;
  ShardedServingFleet fleet(data_->meta, standardizer_, options);
  fleet.RegisterOwned("aw-moe", model.Clone());
  ModelPool reference_pool(data_->meta, standardizer_);
  reference_pool.RegisterOwned("aw-moe", model.Clone());
  ServingEngineOptions caches_off;
  caches_off.gate_cache_capacity = 0;
  caches_off.score_cache_capacity = 0;
  caches_off.encoding_cache_capacity = 0;
  ServingEngine reference(&reference_pool, caches_off);

  // 96 sessions of 12 candidates each; a session's candidates share its
  // user, query and behaviour history.
  constexpr int kSessions = 96;
  constexpr int kItems = 12;
  const DatasetMeta& meta = data_->meta;
  const std::vector<Example>& corpus = data_->full_test;
  std::vector<Example> storage;
  storage.reserve(kSessions * kItems);
  std::vector<RankRequest> requests(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    const int64_t hist = s % 3 == 0 ? 0 : s % 3 == 1 ? 1 : meta.max_seq_len;
    Example user = corpus[static_cast<size_t>(s) % corpus.size()];
    user.behavior_items.clear();
    user.behavior_cats.clear();
    user.behavior_brands.clear();
    user.behavior_attrs.clear();
    for (int64_t j = 0; j < hist; ++j) {
      user.behavior_items.push_back(1 +
                                    (s * 7 + j * 13) % (meta.num_items - 1));
      user.behavior_cats.push_back(1 + (s + j) % (meta.num_cats - 1));
      user.behavior_brands.push_back(1 + (s * 3 + j) % (meta.num_brands - 1));
      for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
        user.behavior_attrs.push_back(
            0.25f * static_cast<float>((s + j + c) % 5) - 0.5f);
      }
    }
    user.history_len = hist;
    requests[s].session_id = 50'000 + s;
    for (int i = 0; i < kItems; ++i) {
      Example item =
          corpus[static_cast<size_t>(s * kItems + i) % corpus.size()];
      item.behavior_items = user.behavior_items;
      item.behavior_cats = user.behavior_cats;
      item.behavior_brands = user.behavior_brands;
      item.behavior_attrs = user.behavior_attrs;
      item.history_len = hist;
      item.query_id = user.query_id;
      item.query_cat = user.query_cat;
      item.user_id = user.user_id;
      item.age_segment = user.age_segment;
      item.session_id = requests[s].session_id;
      storage.push_back(std::move(item));
      requests[s].items.push_back(&storage.back());
    }
  }

  std::vector<std::vector<std::future<RankResponse>>> futures(4);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 4; ++c) {
    threads.emplace_back([c, &fleet, &requests, &futures] {
      for (size_t r = c; r < requests.size(); r += 4) {
        futures[c].push_back(fleet.Submit(requests[r]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < 4; ++c) {
    size_t r = c;
    for (std::future<RankResponse>& future : futures[c]) {
      const RankResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      const RankResponse expected = reference.Rank(requests[r]);
      ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();
      ASSERT_EQ(response.scores.size(), expected.scores.size());
      EXPECT_EQ(std::memcmp(response.scores.data(), expected.scores.data(),
                            expected.scores.size() * sizeof(double)),
                0)
          << "request " << r << " (history "
          << requests[r].items[0]->history_len << ")";
      r += 4;
    }
  }
  fleet.Stop();
  reference.Stop();
}

TEST_F(ShardedFleetTest, RankRoutesToTheRingShard) {
  auto fleet = MakeFleet(3);
  const std::vector<RankRequest> requests = FixtureRequests();
  for (const RankRequest& request : requests) {
    const RankResponse response = fleet->Rank(request);
    ASSERT_TRUE(response.status.ok());
    const int expected_shard = fleet->ShardForSession(request.session_id);
    // The shard's engine (and only it) recorded the request.
    EXPECT_GT(fleet->engine(expected_shard)->stats().requests(), 0);
  }
  int64_t total = 0;
  for (int id : fleet->shard_ids()) {
    total += fleet->engine(id)->stats().requests();
  }
  EXPECT_EQ(total, static_cast<int64_t>(requests.size()));
  fleet->Stop();
}

TEST_F(ShardedFleetTest, ModelOpsFanOutWithAgreedVersions) {
  auto fleet = MakeFleet(2);
  const std::vector<RankRequest> requests = FixtureRequests();

  // Publish v2 everywhere.
  EXPECT_EQ(fleet->UpdateModel("aw-moe", second_model_->Clone()), 2);
  for (const RankRequest& request : requests) {
    EXPECT_EQ(fleet->Rank(request).model_version, 2);
  }

  // Stage v3, pin the candidate arm: every shard serves version 3.
  EXPECT_EQ(fleet->StageCandidate("aw-moe", model_->Clone()), 3);
  EXPECT_EQ(fleet->live_snapshots(), 4);  // 2 shards x (stable+candidate).
  fleet->SetSplit("aw-moe", 500);
  RankRequest probe = requests[0];
  probe.arm_policy = ArmPolicy::kForceCandidate;
  EXPECT_EQ(fleet->Rank(probe).model_version, 3);
  probe.arm_policy = ArmPolicy::kForceStable;
  EXPECT_EQ(fleet->Rank(probe).model_version, 2);

  // With a 50% split, a session's arm is sticky and identical on every
  // shard (the router buckets by session, not by shard).
  for (const RankRequest& request : requests) {
    const int64_t v1 = fleet->Rank(request).model_version;
    const int64_t v2 = fleet->Rank(request).model_version;
    EXPECT_EQ(v1, v2) << "session " << request.session_id;
  }

  EXPECT_EQ(fleet->PromoteCandidate("aw-moe"), 3);
  for (const RankRequest& request : requests) {
    EXPECT_EQ(fleet->Rank(request).model_version, 3);
  }
  EXPECT_EQ(fleet->live_snapshots(), 2);  // Candidates retired fleet-wide.

  // Drop path: stage v4, drop it, stable stays v3.
  EXPECT_EQ(fleet->StageCandidate("aw-moe", second_model_->Clone()), 4);
  EXPECT_TRUE(fleet->DropCandidate("aw-moe"));
  EXPECT_FALSE(fleet->DropCandidate("aw-moe"));
  EXPECT_EQ(fleet->Rank(requests[0]).model_version, 3);
  fleet->Stop();
}

TEST_F(ShardedFleetTest, AddShardReplaysVersionHistory) {
  auto fleet = MakeFleet(2);
  fleet->UpdateModel("aw-moe", second_model_->Clone());   // v2
  fleet->StageCandidate("aw-moe", model_->Clone());       // v3 staged
  fleet->SetSplit("aw-moe", 300);

  const int added = fleet->AddShard();
  EXPECT_EQ(fleet->num_shards(), 3);

  // The new shard serves the SAME versions as the incumbents: stable v2,
  // candidate v3 — version numbers are fleet-coherent, not per-shard.
  RankRequest probe = FixtureRequests()[0];
  for (int64_t session = 0; session < 2000; ++session) {
    if (fleet->ShardForSession(session) == added) {
      probe.session_id = session;
      break;
    }
  }
  ASSERT_EQ(fleet->ShardForSession(probe.session_id), added);
  probe.arm_policy = ArmPolicy::kForceStable;
  EXPECT_EQ(fleet->Rank(probe).model_version, 2);
  probe.arm_policy = ArmPolicy::kForceCandidate;
  EXPECT_EQ(fleet->Rank(probe).model_version, 3);

  // Promote after the topology change still agrees everywhere.
  EXPECT_EQ(fleet->PromoteCandidate("aw-moe"), 3);
  probe.arm_policy = ArmPolicy::kRouter;
  EXPECT_EQ(fleet->Rank(probe).model_version, 3);
  fleet->Stop();
  EXPECT_EQ(fleet->live_snapshots(), 3);
}

TEST_F(ShardedFleetTest, RemoveShardRehomesItsSessions) {
  auto fleet = MakeFleet(3);
  const std::vector<RankRequest> requests = FixtureRequests();
  for (const RankRequest& request : requests) {
    ASSERT_TRUE(fleet->Rank(request).status.ok());
  }
  const std::vector<int> victims = fleet->shard_ids();
  const int victim = victims[1];
  std::map<int64_t, int> before;
  for (const RankRequest& request : requests) {
    before[request.session_id] = fleet->ShardForSession(request.session_id);
  }
  ASSERT_TRUE(fleet->RemoveShard(victim));
  EXPECT_FALSE(fleet->RemoveShard(victim));  // Already gone.
  EXPECT_EQ(fleet->num_shards(), 2);
  EXPECT_EQ(fleet->engine(victim), nullptr);
  for (const RankRequest& request : requests) {
    const int now = fleet->ShardForSession(request.session_id);
    EXPECT_NE(now, victim);
    if (before[request.session_id] != victim) {
      // Rebalance invariant carried through the fleet: survivors keep
      // their sessions (gate caches stay warm).
      EXPECT_EQ(now, before[request.session_id]);
    }
    EXPECT_TRUE(fleet->Rank(request).status.ok());
  }
  fleet->Stop();
  EXPECT_EQ(fleet->live_snapshots(), 2);
}

TEST_F(ShardedFleetTest, ShedsPastDeadlineWithoutTouchingVersionHealth) {
  FleetOptions options;
  options.num_shards = 2;
  options.admission.enabled = true;
  options.admission.max_shed_rate = 1.0;  // Pure shedding.
  // Refresh the service-time estimate quickly: the warm-up below must
  // leave every shard with a non-zero mean before the deadline probe.
  options.admission.load_refresh_every = 4;
  ShardedServingFleet fleet(data_->meta, standardizer_, options);
  fleet.RegisterOwned("aw-moe", model_->Clone());

  // Warm the service-time estimate with real traffic, then demand an
  // impossible deadline: everything sheds, instantly.
  const std::vector<RankRequest> requests = FixtureRequests();
  for (const RankRequest& request : requests) {
    ASSERT_TRUE(fleet.Submit(request).get().status.ok());
  }
  const int64_t served = fleet.Stats().merged.requests;
  ASSERT_GT(served, 0);

  int64_t rejected = 0;
  for (RankRequest request : requests) {
    request.deadline_ms = 1e-9;
    const RankResponse response = fleet.Submit(std::move(request)).get();
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(response.model, "aw-moe");  // Resolved before shedding.
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0);
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.shed, rejected);
  EXPECT_GT(stats.shed_rate, 0.0);
  // Shed requests never reached an engine: request counts and version
  // health are exactly what the warm-up traffic left behind (a shed is
  // a load signal, not a model-quality signal).
  EXPECT_EQ(stats.merged.requests, served);
  for (const auto& health : stats.merged.version_health) {
    EXPECT_EQ(health.requests, served);
  }
  fleet.Stop();
}

// An unknown model name is a client error on every fleet path: kNotFound
// on that request, never an abort — and not a shed, even when the shard
// would shed everything.
TEST_F(ShardedFleetTest, UnknownModelNotFoundOnEveryFleetPath) {
  FleetOptions options;
  options.num_shards = 2;
  options.admission.enabled = true;
  options.admission.max_shed_rate = 1.0;  // Pure shedding.
  options.admission.load_refresh_every = 4;
  ShardedServingFleet fleet(data_->meta, standardizer_, options);
  fleet.RegisterOwned("aw-moe", model_->Clone());

  const std::vector<RankRequest> requests = FixtureRequests();
  for (const RankRequest& request : requests) {
    ASSERT_TRUE(fleet.Submit(request).get().status.ok());
  }
  const int64_t served = fleet.Stats().merged.requests;

  for (RankRequest request : requests) {
    request.model = "no-such-model";
    EXPECT_EQ(fleet.Rank(request).status.code(), StatusCode::kNotFound);
    request.deadline_ms = 1e-9;  // Would shed on a known route.
    const RankResponse response = fleet.Submit(std::move(request)).get();
    EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
    EXPECT_EQ(response.model, "no-such-model");
    EXPECT_TRUE(response.scores.empty());
  }
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.merged.requests, served);
  // Known routes are still served.
  EXPECT_TRUE(fleet.Rank(requests[0]).status.ok());
  fleet.Stop();
}

// Malformed candidates are client errors on every fleet path: that
// request comes back kInvalidArgument from whichever shard owns it, and
// the fleet keeps serving.
TEST_F(ShardedFleetTest, MalformedItemsInvalidArgumentOnEveryFleetPath) {
  auto fleet = MakeFleet(2);
  const std::vector<RankRequest> requests = FixtureRequests();
  ASSERT_GE(requests.size(), 2u);
  for (const MalformedItemCase& c : MalformedItemCases()) {
    const std::vector<Example> bad =
        CorruptedSession(requests[1].items, c, data_->meta);
    RankRequest malformed = requests[1];
    malformed.items = ItemPointers(bad);
    const RankResponse ranked = fleet->Rank(malformed);
    EXPECT_EQ(ranked.status.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_TRUE(ranked.scores.empty()) << c.name;
    const RankResponse submitted = fleet->Submit(malformed).get();
    EXPECT_EQ(submitted.status.code(), StatusCode::kInvalidArgument)
        << c.name;
    EXPECT_TRUE(submitted.scores.empty()) << c.name;
    const RankResponse served = fleet->Submit(requests[0]).get();
    ASSERT_TRUE(served.status.ok()) << c.name << ": " << served.status;
    EXPECT_EQ(served.scores.size(), requests[0].items.size());
  }
  fleet->Stop();
}

TEST_F(ShardedFleetTest, FleetStatsMergeShardHistograms) {
  auto fleet = MakeFleet(3);
  const std::vector<RankRequest> requests = FixtureRequests();
  std::vector<std::future<RankResponse>> futures;
  for (const RankRequest& request : requests) {
    futures.push_back(fleet->Submit(request));
  }
  for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());
  const FleetStats stats = fleet->Stats();

  int64_t shard_requests = 0;
  Histogram pooled;
  for (const ShardStatsSnapshot& shard : stats.shards) {
    shard_requests += shard.engine.requests;
    pooled.Merge(shard.engine.latency);
  }
  EXPECT_EQ(stats.merged.requests, shard_requests);
  EXPECT_EQ(stats.merged.requests, static_cast<int64_t>(requests.size()));
  // The merged histogram is the bucket-wise sum of the shards', and the
  // merged percentiles are that sum's nearest-rank percentiles.
  EXPECT_EQ(pooled.count(), shard_requests);
  EXPECT_TRUE(stats.merged.latency == pooled);
  EXPECT_DOUBLE_EQ(stats.merged.p50_ms, pooled.Percentile(50.0));
  EXPECT_DOUBLE_EQ(stats.merged.p95_ms, pooled.Percentile(95.0));
  EXPECT_DOUBLE_EQ(stats.merged.p99_ms, pooled.Percentile(99.0));
  fleet->Stop();
}

}  // namespace
}  // namespace awmoe
