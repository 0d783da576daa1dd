#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "mat/kernels.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "serving/ab_test.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "malformed_items.h"

namespace awmoe {
namespace {

// These tests compare engine scores against the autograd (Var-graph)
// forward bitwise, which only holds on the reference kernel tier (the
// fast tier is epsilon-bounded; see kernel_tier_test.cc).
const bool kPinnedReferenceTier = [] {
  SetKernelTier(KernelTier::kReference);
  return true;
}();

AwMoeConfig SmallAwMoeConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 4;
  config.dims.tower_mlp = {8, 6};
  config.dims.activation_unit = {6, 4};
  config.dims.gate_unit = {6, 4};
  config.dims.expert = {12, 8};
  return config;
}

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.num_users = 300;
    jd.num_items = 200;
    jd.num_categories = 8;
    jd.brands_per_category = 4;
    jd.num_shops = 15;
    jd.train_sessions = 100;
    jd.test_sessions = 60;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 77;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng(5);
    model_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng);
    Rng rng2(12);
    second_model_ =
        new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng2);
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

  /// Fresh single-model pool over the shared fixture data (unique_ptr:
  /// the pool holds per-lane mutexes, so it is neither copyable nor
  /// movable).
  static std::unique_ptr<ModelPool> MakeRegistry() {
    auto pool = std::make_unique<ModelPool>(data_->meta, standardizer_);
    pool->Register("aw-moe", model_);
    return pool;
  }

  /// Copies a session with one extra behaviour appended to every item —
  /// the "user clicked between pagination requests" gate context.
  static std::vector<Example> MakeGrownSession(
      const std::vector<const Example*>& session) {
    std::vector<Example> grown;
    grown.reserve(session.size());
    for (const Example* ex : session) {
      Example copy = *ex;
      copy.behavior_items.push_back(1);
      copy.behavior_cats.push_back(1);
      copy.behavior_brands.push_back(1);
      if (!copy.behavior_attrs.empty()) {
        copy.behavior_attrs.insert(copy.behavior_attrs.end(),
                                   Example::kItemAttrs, 0.0f);
      }
      grown.push_back(std::move(copy));
    }
    return grown;
  }

  /// The autograd reference scores of one session: the Var-graph
  /// forward under NoGradGuard, then Sigmoid. With `share_gate`, the
  /// §III-F form: the gate is evaluated once on a 1-row probe of the
  /// session and reused for every item.
  static std::vector<double> ReferenceScores(
      const std::vector<const Example*>& session, bool share_gate) {
    NoGradGuard guard;
    Batch batch = CollateBatch(session, data_->meta, standardizer_);
    Var logits;
    if (share_gate) {
      Batch probe = CollateBatch({session[0]}, data_->meta, standardizer_);
      const Matrix gate = model_->GateRepresentation(probe).value();
      logits = model_->Forward(batch, &gate).logits;
    } else {
      logits = model_->ForwardLogits(batch);
    }
    const Matrix probs = Sigmoid(logits.value());
    std::vector<double> scores(static_cast<size_t>(probs.rows()));
    for (int64_t i = 0; i < probs.rows(); ++i) {
      scores[static_cast<size_t>(i)] = probs(i, 0);
    }
    return scores;
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* model_;
  static AwMoeRanker* second_model_;
};

JdDataset* ServingTest::data_ = nullptr;
Standardizer* ServingTest::standardizer_ = nullptr;
AwMoeRanker* ServingTest::model_ = nullptr;
AwMoeRanker* ServingTest::second_model_ = nullptr;

// ---------------------------------------------------------------------
// GroupBySession.
// ---------------------------------------------------------------------

TEST_F(ServingTest, GroupBySessionPartitionsExamples) {
  auto sessions = GroupBySession(data_->full_test);
  size_t total = 0;
  for (const auto& session : sessions) {
    EXPECT_FALSE(session.empty());
    for (const Example* ex : session) {
      EXPECT_EQ(ex->session_id, session[0]->session_id);
    }
    total += session.size();
  }
  EXPECT_EQ(total, data_->full_test.size());
}

TEST_F(ServingTest, GroupBySessionEmptySplit) {
  std::vector<Example> empty;
  EXPECT_TRUE(GroupBySession(empty).empty());
}

TEST_F(ServingTest, GroupBySessionSingleSession) {
  std::vector<Example> examples(4);
  for (size_t i = 0; i < examples.size(); ++i) {
    examples[i].session_id = 9;
    examples[i].target_item = static_cast<int64_t>(i + 1);
  }
  auto sessions = GroupBySession(examples);
  ASSERT_EQ(sessions.size(), 1u);
  ASSERT_EQ(sessions[0].size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sessions[0][i]->target_item, static_cast<int64_t>(i + 1));
  }
}

TEST_F(ServingTest, GroupBySessionInterleavedPreservesWithinSessionOrder) {
  // Sessions 2, 1, 3 interleaved; target_item encodes arrival order.
  std::vector<Example> examples(6);
  const int64_t ids[] = {2, 1, 2, 1, 3, 2};
  for (size_t i = 0; i < examples.size(); ++i) {
    examples[i].session_id = ids[i];
    examples[i].target_item = static_cast<int64_t>(i);
  }
  auto sessions = GroupBySession(examples);
  ASSERT_EQ(sessions.size(), 3u);
  // Ascending session id.
  EXPECT_EQ(sessions[0][0]->session_id, 1);
  EXPECT_EQ(sessions[1][0]->session_id, 2);
  EXPECT_EQ(sessions[2][0]->session_id, 3);
  // Within-session arrival order preserved.
  ASSERT_EQ(sessions[0].size(), 2u);
  EXPECT_EQ(sessions[0][0]->target_item, 1);
  EXPECT_EQ(sessions[0][1]->target_item, 3);
  ASSERT_EQ(sessions[1].size(), 3u);
  EXPECT_EQ(sessions[1][0]->target_item, 0);
  EXPECT_EQ(sessions[1][1]->target_item, 2);
  EXPECT_EQ(sessions[1][2]->target_item, 5);
  ASSERT_EQ(sessions[2].size(), 1u);
  EXPECT_EQ(sessions[2][0]->target_item, 4);
}

// ---------------------------------------------------------------------
// Engine vs the autograd reference: the regression anchor. The
// engine's workspace path must reproduce the Var-graph scores bit for
// bit.
// ---------------------------------------------------------------------

TEST_F(ServingTest, EngineMatchesLegacyServiceBitwisePerItemGate) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.share_gate = false;
  ServingEngine engine(&registry, options);

  auto sessions = GroupBySession(data_->full_test);
  for (const auto& session : sessions) {
    std::vector<double> expected =
        ReferenceScores(session, /*share_gate=*/false);
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    RankResponse response = engine.Rank(request);
    EXPECT_FALSE(response.gate_shared);
    ASSERT_EQ(response.scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.scores[i], expected[i]) << "item " << i;
    }
  }
}

TEST_F(ServingTest, EngineMatchesLegacyServiceBitwiseSharedGate) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  ASSERT_TRUE(engine.GateSharingActive());

  auto sessions = GroupBySession(data_->full_test);
  for (const auto& session : sessions) {
    std::vector<double> expected =
        ReferenceScores(session, /*share_gate=*/true);
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    RankResponse response = engine.Rank(request);
    EXPECT_TRUE(response.gate_shared);
    ASSERT_EQ(response.scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.scores[i], expected[i]) << "item " << i;
    }
  }
}

// An empty candidate list is a client error on both fronts: that one
// request comes back kInvalidArgument (same response fields as every
// admission rejection) and the rest of the batch is served.
TEST_F(ServingTest, EmptyCandidateListRejectedNotAborted) {
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  auto sessions = GroupBySession(data_->full_test);
  ASSERT_GE(sessions.size(), 2u);
  std::vector<RankRequest> mixed(3);
  mixed[0].session_id = sessions[0][0]->session_id;
  mixed[0].items = sessions[0];
  mixed[1].session_id = 4242;  // No candidates.
  mixed[2].session_id = sessions[1][0]->session_id;
  mixed[2].items = sessions[1];

  auto expect_mixed = [&](const std::vector<RankResponse>& responses) {
    ASSERT_EQ(responses.size(), 3u);
    for (size_t r : {size_t{0}, size_t{2}}) {
      ASSERT_TRUE(responses[r].status.ok()) << responses[r].status;
      EXPECT_EQ(responses[r].scores.size(), mixed[r].items.size());
    }
    const RankResponse& rejected = responses[1];
    EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(rejected.scores.empty());
    EXPECT_EQ(rejected.session_id, 4242);
    EXPECT_EQ(rejected.model, "aw-moe");
    EXPECT_EQ(rejected.model_version, 1);
    EXPECT_EQ(rejected.arm, RolloutArm::kStable);
    EXPECT_EQ(rejected.replica, -1);
  };

  expect_mixed(engine.RankBatch(mixed));
  EXPECT_EQ(engine.stats().requests(), 2);  // Rejects are not serves.

  std::vector<std::future<RankResponse>> futures;
  for (const RankRequest& request : mixed) {
    futures.push_back(engine.Submit(request));
  }
  std::vector<RankResponse> async_responses;
  for (auto& future : futures) async_responses.push_back(future.get());
  expect_mixed(async_responses);
}

// A malformed candidate (out-of-vocab or negative id, mis-sized or
// non-finite features, behaviour lists of unequal length) is a client
// error too: that one request comes back kInvalidArgument and the rest
// of the batch is served.
TEST_F(ServingTest, MalformedItemsRejectedNotAborted) {
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  auto sessions = GroupBySession(data_->full_test);
  ASSERT_GE(sessions.size(), 3u);
  for (const MalformedItemCase& c : MalformedItemCases()) {
    const std::vector<Example> bad =
        CorruptedSession(sessions[1], c, data_->meta);
    std::vector<RankRequest> mixed(3);
    for (size_t r : {size_t{0}, size_t{2}}) {
      mixed[r].session_id = sessions[r][0]->session_id;
      mixed[r].items = sessions[r];
    }
    mixed[1].session_id = 4243;
    mixed[1].items = ItemPointers(bad);
    const std::vector<RankResponse> responses = engine.RankBatch(mixed);
    ASSERT_EQ(responses.size(), 3u);
    for (size_t r : {size_t{0}, size_t{2}}) {
      ASSERT_TRUE(responses[r].status.ok())
          << c.name << ": " << responses[r].status;
      EXPECT_EQ(responses[r].scores.size(), mixed[r].items.size());
    }
    EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument)
        << c.name;
    EXPECT_TRUE(responses[1].scores.empty()) << c.name;
    EXPECT_EQ(responses[1].session_id, 4243) << c.name;
  }
  RankRequest null_item;
  null_item.items = {sessions[0][0], nullptr};
  EXPECT_EQ(engine.Rank(null_item).status.code(),
            StatusCode::kInvalidArgument);
}

// An unknown model name is a client error too: that one request comes
// back kNotFound and the rest of the batch is served. So is an empty
// name routed to a pool with no default model.
TEST_F(ServingTest, UnknownModelRejectedNotAborted) {
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  auto sessions = GroupBySession(data_->full_test);
  ASSERT_GE(sessions.size(), 2u);
  std::vector<RankRequest> mixed(3);
  for (size_t r = 0; r < mixed.size(); ++r) {
    mixed[r].session_id = sessions[r][0]->session_id;
    mixed[r].items = sessions[r];
  }
  mixed[1].model = "no-such-model";

  std::vector<RankResponse> responses = engine.RankBatch(mixed);
  ASSERT_EQ(responses.size(), 3u);
  for (size_t r : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(responses[r].status.ok()) << responses[r].status;
    EXPECT_EQ(responses[r].model, "aw-moe");
    EXPECT_EQ(responses[r].scores.size(), mixed[r].items.size());
  }
  const RankResponse& rejected = responses[1];
  EXPECT_EQ(rejected.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(rejected.scores.empty());
  EXPECT_EQ(rejected.session_id, mixed[1].session_id);
  EXPECT_EQ(rejected.model, "no-such-model");
  EXPECT_EQ(rejected.model_version, 0);
  EXPECT_EQ(rejected.replica, -1);
  EXPECT_EQ(engine.stats().requests(), 2);

  std::string resolved;
  EXPECT_FALSE(registry_owner->TryResolveName("no-such-model", &resolved));
  EXPECT_TRUE(registry_owner->TryResolveName("", &resolved));
  EXPECT_EQ(resolved, "aw-moe");

  ModelPool empty(data_->meta, standardizer_);
  EXPECT_FALSE(empty.TryResolveName("", &resolved));
  ServingEngine empty_engine(&empty);
  mixed[0].model.clear();
  const RankResponse no_default = empty_engine.Rank(mixed[0]);
  EXPECT_EQ(no_default.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(no_default.scores.empty());
}

// A forward that produces a non-finite score is a model fault, not a
// ranking: every request it scored comes back kInternal with no
// scores, nothing is cached (a repeat is kInternal again, not a hit),
// and a healthy model in the same pool keeps serving. Both tiers run:
// the fast tier's sigmoid turns a NaN logit into a finite score, so
// the check must not read the post-sigmoid floats.
TEST_F(ServingTest, NonFiniteScoresRejectedNotServedOrCached) {
  std::unique_ptr<Ranker> broken = model_->Clone();
  // The last parameter is the gate bias: a NaN there reaches every row.
  broken->Parameters().back().mutable_value()(0, 0) =
      std::numeric_limits<float>::quiet_NaN();
  std::vector<KernelTier> tiers = {KernelTier::kReference};
  if (FastKernelTierAvailable()) tiers.push_back(KernelTier::kFast);
  auto sessions = GroupBySession(data_->full_test);
  ASSERT_GE(sessions.size(), 4u);
  for (const KernelTier tier : tiers) {
    ScopedKernelTier scoped(tier);
    ModelPool pool(data_->meta, standardizer_);
    pool.Register("healthy", model_);
    pool.Register("broken", broken.get());
    ServingEngine engine(&pool);
    std::vector<RankRequest> mixed(4);
    for (size_t r = 0; r < mixed.size(); ++r) {
      mixed[r].session_id = sessions[r][0]->session_id;
      mixed[r].items = sessions[r];
      mixed[r].model = r % 2 == 0 ? "healthy" : "broken";
    }
    for (int round = 0; round < 2; ++round) {
      const std::vector<RankResponse> responses = engine.RankBatch(mixed);
      ASSERT_EQ(responses.size(), mixed.size());
      for (size_t r = 0; r < mixed.size(); ++r) {
        const RankResponse& response = responses[r];
        const std::string where = std::string(KernelTierName(tier)) +
                                  " round " + std::to_string(round) +
                                  " request " + std::to_string(r);
        if (mixed[r].model == "broken") {
          EXPECT_EQ(response.status.code(), StatusCode::kInternal) << where;
          EXPECT_TRUE(response.scores.empty()) << where;
          EXPECT_FALSE(response.score_cache_hit) << where;
          EXPECT_EQ(response.model, "broken") << where;
        } else {
          ASSERT_TRUE(response.status.ok()) << where << response.status;
          ASSERT_EQ(response.scores.size(), mixed[r].items.size()) << where;
          for (double score : response.scores) {
            EXPECT_TRUE(std::isfinite(score)) << where;
          }
          // The healthy model's repeat is a level-1 hit: the cache is
          // on, so the broken model's misses above are not its doing.
          EXPECT_EQ(response.score_cache_hit, round == 1) << where;
        }
      }
    }
    // Only the healthy requests count as served traffic.
    EXPECT_EQ(engine.stats().requests(), 4);
  }
}

// §III-F is exact, not approximate: sharing the gate must not change a
// single bit of any score.
TEST_F(ServingTest, SharedGateBitwiseIdenticalToPerItemGate) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  // Score caching off: both engines share one pool (one snapshot, one
  // score cache), and this test must compare two real forward paths,
  // not a cached replay of the first engine's scores.
  ServingEngineOptions per_item_options;
  per_item_options.share_gate = false;
  per_item_options.score_cache_capacity = 0;
  ServingEngine per_item(&registry, per_item_options);
  ServingEngineOptions shared_options;
  shared_options.score_cache_capacity = 0;
  ServingEngine shared(&registry, shared_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = per_item.RankBatch(requests);
  auto b = shared.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_FALSE(a[s].gate_shared);
    EXPECT_TRUE(b[s].gate_shared);
    ASSERT_EQ(a[s].scores.size(), b[s].scores.size());
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i])
          << "session " << a[s].session_id << " item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Micro-batching and threading invariance.
// ---------------------------------------------------------------------

TEST_F(ServingTest, MicroBatchingDoesNotChangeScores) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));

  ServingEngineOptions one_by_one;
  one_by_one.max_batch_items = 1;  // Every session alone (never split).
  ServingEngine baseline(&registry, one_by_one);
  auto expected = baseline.RankBatch(requests);

  for (int64_t cap : {64, 1024}) {
    ServingEngineOptions options;
    options.max_batch_items = cap;
    ServingEngine engine(&registry, options);
    auto responses = engine.RankBatch(requests);
    ASSERT_EQ(responses.size(), expected.size());
    for (size_t s = 0; s < responses.size(); ++s) {
      ASSERT_EQ(responses[s].scores.size(), expected[s].scores.size());
      for (size_t i = 0; i < responses[s].scores.size(); ++i) {
        EXPECT_EQ(responses[s].scores[i], expected[s].scores[i])
            << "cap " << cap << " session " << s << " item " << i;
      }
    }
  }
}

TEST_F(ServingTest, WorkerPoolDoesNotChangeScores) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("a", model_);
  registry.Register("b", second_model_);

  auto sessions = GroupBySession(data_->full_test);
  std::vector<RankRequest> requests;
  for (size_t s = 0; s < sessions.size(); ++s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.model = (s % 2 == 0) ? "a" : "b";
    request.items = sessions[s];
    requests.push_back(std::move(request));
  }

  ServingEngineOptions serial_options;
  serial_options.max_batch_items = 32;
  ServingEngine serial(&registry, serial_options);
  auto expected = serial.RankBatch(requests);

  ServingEngineOptions pooled_options = serial_options;
  pooled_options.num_threads = 4;
  ServingEngine pooled(&registry, pooled_options);
  auto responses = pooled.RankBatch(requests);

  ASSERT_EQ(responses.size(), expected.size());
  for (size_t s = 0; s < responses.size(); ++s) {
    EXPECT_EQ(responses[s].model, expected[s].model);
    ASSERT_EQ(responses[s].scores.size(), expected[s].scores.size());
    for (size_t i = 0; i < responses[s].scores.size(); ++i) {
      EXPECT_EQ(responses[s].scores[i], expected[s].scores[i]);
    }
  }
}

// ---------------------------------------------------------------------
// Gate cache.
// ---------------------------------------------------------------------

TEST_F(ServingTest, GateCacheHitsOnRepeatSessionWithIdenticalScores) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  // Level-1 caching off: a repeat request must reach the GATE cache
  // (with scores cached it would short-circuit before the gate lookup).
  ServingEngineOptions options;
  options.score_cache_capacity = 0;
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  RankResponse first = engine.Rank(request);
  EXPECT_TRUE(first.gate_shared);
  EXPECT_FALSE(first.gate_cache_hit);
  RankResponse second = engine.Rank(request);
  EXPECT_TRUE(second.gate_cache_hit);
  ASSERT_EQ(second.scores.size(), first.scores.size());
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], first.scores[i]);
  }
}

TEST_F(ServingTest, GateCacheInvalidatesOnChangedSessionContext) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_FALSE(engine.Rank(request).gate_cache_hit);
  EXPECT_TRUE(engine.Rank(request).gate_cache_hit);

  // Same session id, but the user's behaviour sequence grew in the
  // meantime: the cached gate is stale and must be re-probed.
  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest grown_request;
  grown_request.session_id = request.session_id;
  for (const Example& ex : grown) grown_request.items.push_back(&ex);
  RankResponse stale_check = engine.Rank(grown_request);
  EXPECT_FALSE(stale_check.gate_cache_hit);

  // The fresh gate must match an engine that never saw the old context.
  auto clean_registry_owner = MakeRegistry();
  ModelPool& clean_registry = *clean_registry_owner;
  ServingEngine clean_engine(&clean_registry);
  RankResponse expected = clean_engine.Rank(grown_request);
  ASSERT_EQ(stale_check.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(stale_check.scores[i], expected.scores[i]);
  }
}

TEST_F(ServingTest, SameSessionDifferentContextInOneBatchGetOwnGates) {
  // Two requests with the same session id but different gate inputs
  // inside ONE RankBatch must each be probed — the first request's
  // gate must not leak to the second.
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest original;
  original.session_id = sessions[0][0]->session_id;
  original.items = sessions[0];
  RankRequest changed;
  changed.session_id = original.session_id;
  for (const Example& ex : grown) changed.items.push_back(&ex);

  auto responses = engine.RankBatch({original, changed});

  auto clean_registry_owner = MakeRegistry();
  ModelPool& clean_registry = *clean_registry_owner;
  ServingEngine clean_engine(&clean_registry);
  RankResponse expected_changed = clean_engine.Rank(changed);
  ASSERT_EQ(responses[1].scores.size(), expected_changed.scores.size());
  for (size_t i = 0; i < expected_changed.scores.size(); ++i) {
    EXPECT_EQ(responses[1].scores[i], expected_changed.scores[i])
        << "item " << i;
  }
}

TEST_F(ServingTest, GateCacheEvictsLeastRecentlyUsed) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 2;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  auto rank = [&](size_t s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.items = sessions[s];
    return engine.Rank(request);
  };
  EXPECT_FALSE(rank(0).gate_cache_hit);
  EXPECT_FALSE(rank(1).gate_cache_hit);
  EXPECT_TRUE(rank(0).gate_cache_hit);   // 0 refreshed; LRU order {0, 1}.
  EXPECT_FALSE(rank(2).gate_cache_hit);  // Evicts 1.
  EXPECT_FALSE(rank(1).gate_cache_hit);  // 1 was evicted; evicts 0.
  EXPECT_TRUE(rank(2).gate_cache_hit);
}

TEST_F(ServingTest, GateCacheDisabledStillSharesWithinRequest) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 0;
  options.score_cache_capacity = 0;  // Repeats must re-run the forward.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse first = engine.Rank(request);
  RankResponse second = engine.Rank(request);
  EXPECT_TRUE(first.gate_shared);
  EXPECT_TRUE(second.gate_shared);
  EXPECT_FALSE(second.gate_cache_hit);
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], first.scores[i]);
  }
}

TEST_F(ServingTest, GateCacheCountersTrackHitsAndMisses) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  engine.Rank(request);  // Cold: one miss.
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_hits, 0);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_misses, 1);
  engine.Rank(request);  // Repeat: one hit.
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_hits, 1);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_misses, 1);

  // Same session id, changed gate context: the invalidation re-probe
  // counts as a miss, not a hit.
  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest grown_request;
  grown_request.session_id = request.session_id;
  for (const Example& ex : grown) grown_request.items.push_back(&ex);
  engine.Rank(grown_request);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_hits, 1);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_misses, 2);

  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.gate_cache_hits, 1);
  EXPECT_EQ(snap.gate_cache_misses, 2);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_hits, 0);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_misses, 0);
}

TEST_F(ServingTest, GateCacheEvictionShowsUpInMissCounters) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 2;
  options.score_cache_capacity = 0;  // Repeats must reach the gate cache.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  auto rank = [&](size_t s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.items = sessions[s];
    return engine.Rank(request);
  };
  rank(0);  // miss (cold)
  rank(1);  // miss (cold)
  rank(0);  // hit; LRU order {0, 1}
  rank(2);  // miss (cold), evicts 1
  rank(1);  // miss (evicted), evicts 0
  rank(2);  // hit
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_hits, 2);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_misses, 4);
}

TEST_F(ServingTest, GateCacheDisabledCountsEveryLookupAsMiss) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.gate_cache_capacity = 0;
  options.score_cache_capacity = 0;  // Repeats must re-run the forward.
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  engine.Rank(request);
  engine.Rank(request);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_hits, 0);
  EXPECT_EQ(engine.stats().Snapshot().gate_cache_misses, 2);
}

// ---------------------------------------------------------------------
// Gate-sharing preconditions.
// ---------------------------------------------------------------------

TEST_F(ServingTest, GateSharingDisabledInRecommendationMode) {
  DatasetMeta rec_meta = data_->meta;
  rec_meta.recommendation_mode = true;
  Rng rng(5);
  AwMoeRanker rec_model(rec_meta, SmallAwMoeConfig(), &rng);
  ModelPool registry(rec_meta, standardizer_);
  registry.Register("aw-moe", &rec_model);
  ServingEngine engine(&registry);
  EXPECT_FALSE(engine.GateSharingActive())
      << "rec mode gate depends on the target item; sharing must disable";
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse response = engine.Rank(request);
  EXPECT_FALSE(response.gate_shared);
  EXPECT_EQ(response.scores.size(), sessions[0].size());
}

TEST_F(ServingTest, GateSharingRequiresShareableGate) {
  Rng rng(9);
  ModelDims dims = SmallAwMoeConfig().dims;
  DnnRanker dnn(data_->meta, dims, &rng);
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("dnn", &dnn);
  ServingEngine engine(&registry);
  EXPECT_FALSE(engine.GateSharingActive());
  // Still serves correctly via the fallback path.
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse response = engine.Rank(request);
  EXPECT_EQ(response.scores.size(), sessions[0].size());
  for (double s : response.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// Gate sharing is model-agnostic since the ScoreInto redesign: any
// ranker declaring SupportsSessionGateReuse + a gate width serves the
// §III-F path — Category-MoE's query-category gate qualifies in search
// mode, with scores bitwise-unchanged and repeat requests hitting the
// snapshot's gate cache. (The old engine hard-downcast to AwMoeRanker
// and could not do this.)
TEST_F(ServingTest, CategoryMoeServesSharedGateThroughGenericApi) {
  Rng rng(23);
  CategoryMoeRanker cat_moe(data_->meta, SmallAwMoeConfig().dims, &rng);
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("cat-moe", &cat_moe);

  // Score caching off on both engines: they share one pool snapshot,
  // and the comparison needs two real forwards, not a cached replay.
  ServingEngineOptions shared_options;
  shared_options.score_cache_capacity = 0;
  ServingEngine shared(&registry, shared_options);
  ASSERT_TRUE(shared.GateSharingActive());
  ServingEngineOptions per_item_options;
  per_item_options.share_gate = false;
  per_item_options.score_cache_capacity = 0;
  ServingEngine per_item(&registry, per_item_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = per_item.RankBatch(requests);
  auto b = shared.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_FALSE(a[s].gate_shared);
    EXPECT_TRUE(b[s].gate_shared);
    ASSERT_EQ(a[s].scores.size(), b[s].scores.size());
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i])
          << "session " << a[s].session_id << " item " << i;
    }
  }
  // Repeat request: the cached row serves without re-running the gate.
  EXPECT_TRUE(shared.Rank(requests[0]).gate_cache_hit);
}

// ---------------------------------------------------------------------
// Gate-cache warm-up (ModelPool::WarmSessionGates).
// ---------------------------------------------------------------------

TEST_F(ServingTest, WarmSessionGatesMakesFirstRequestAHit) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  const int64_t warmed =
      registry.WarmSessionGates("aw-moe", RolloutArm::kStable, sessions,
                                engine.options().gate_cache_capacity);
  EXPECT_EQ(warmed, static_cast<int64_t>(sessions.size()));

  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  RankResponse warm = engine.Rank(request);
  EXPECT_TRUE(warm.gate_shared);
  EXPECT_TRUE(warm.gate_cache_hit)
      << "a warmed session's FIRST request must skip the gate probe";

  // Warmed rows come from the same GateInto path a cold probe takes, so
  // scores must equal a never-warmed engine's bitwise.
  auto cold_owner = MakeRegistry();
  ServingEngine cold_engine(&*cold_owner);
  RankResponse cold = cold_engine.Rank(request);
  ASSERT_EQ(warm.scores.size(), cold.scores.size());
  for (size_t i = 0; i < cold.scores.size(); ++i) {
    EXPECT_EQ(warm.scores[i], cold.scores[i]) << "item " << i;
  }
}

TEST_F(ServingTest, WarmSessionGatesOnStagedCandidateOnly) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  // Nothing staged yet: warming the candidate arm is a no-op.
  EXPECT_EQ(registry.WarmSessionGates("aw-moe", RolloutArm::kCandidate,
                                      sessions, 4096),
            0);

  registry.StageCandidate("aw-moe", model_->Clone());
  const int64_t warmed = registry.WarmSessionGates(
      "aw-moe", RolloutArm::kCandidate, sessions, 4096);
  EXPECT_EQ(warmed, static_cast<int64_t>(sessions.size()));

  // The candidate snapshot starts gate-warm BEFORE taking traffic...
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  request.arm_policy = ArmPolicy::kForceCandidate;
  RankResponse candidate = engine.Rank(request);
  EXPECT_EQ(candidate.arm, RolloutArm::kCandidate);
  EXPECT_TRUE(candidate.gate_cache_hit);

  // ...while the stable snapshot's cache was not touched.
  request.arm_policy = ArmPolicy::kForceStable;
  EXPECT_FALSE(engine.Rank(request).gate_cache_hit);
  registry.DropCandidate("aw-moe");
}

TEST_F(ServingTest, WarmSessionGatesWithoutShareableGateReturnsZero) {
  Rng rng(9);
  DnnRanker dnn(data_->meta, SmallAwMoeConfig().dims, &rng);
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("dnn", &dnn);
  auto sessions = GroupBySession(data_->full_test);
  EXPECT_EQ(
      registry.WarmSessionGates("dnn", RolloutArm::kStable, sessions, 4096),
      0);
}

// ---------------------------------------------------------------------
// Level-1 session score cache and level-2 session feature store.
// ---------------------------------------------------------------------

TEST_F(ServingTest, ScoreCacheHitServesBitwiseEqualScoresWithoutLane) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  RankResponse first = engine.Rank(request);
  EXPECT_FALSE(first.score_cache_hit);
  EXPECT_GE(first.replica, 0);
  RankResponse second = engine.Rank(request);
  EXPECT_TRUE(second.score_cache_hit);
  EXPECT_EQ(second.replica, -1);  // No lane was leased.
  EXPECT_EQ(second.model_version, first.model_version);
  ASSERT_EQ(second.scores.size(), first.scores.size());
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], first.scores[i]) << "item " << i;
  }

  // Cached scores must be bitwise-equal to a full recompute on an
  // engine that has never cached anything.
  auto clean_owner = MakeRegistry();
  ServingEngineOptions cold;
  cold.score_cache_capacity = 0;
  ServingEngine clean(&*clean_owner, cold);
  RankResponse recompute = clean.Rank(request);
  for (size_t i = 0; i < recompute.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], recompute.scores[i]) << "item " << i;
  }
}

TEST_F(ServingTest, ScoreCacheHitIsCandidateOrderInsensitive) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  // Pick a session with at least 2 candidates.
  size_t s = 0;
  while (s < sessions.size() && sessions[s].size() < 2) ++s;
  ASSERT_LT(s, sessions.size());
  RankRequest request;
  request.session_id = sessions[s][0]->session_id;
  request.items = sessions[s];
  RankResponse first = engine.Rank(request);
  EXPECT_FALSE(first.score_cache_hit);

  // Same candidate set, reversed order: still a hit, and every item
  // gets ITS score (matched per candidate hash, not by position).
  RankRequest reversed = request;
  std::reverse(reversed.items.begin(), reversed.items.end());
  RankResponse second = engine.Rank(reversed);
  EXPECT_TRUE(second.score_cache_hit);
  ASSERT_EQ(second.scores.size(), first.scores.size());
  const size_t n = first.scores.size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(second.scores[i], first.scores[n - 1 - i]) << "item " << i;
  }
}

TEST_F(ServingTest, ScoreCacheInvalidatesOnHistoryChange) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_FALSE(engine.Rank(request).score_cache_hit);
  EXPECT_TRUE(engine.Rank(request).score_cache_hit);
  EXPECT_EQ(engine.stats().Snapshot().score_cache_invalidations, 0);

  // The user clicked between requests: same items, grown history. The
  // cached scores are stale and a real forward must run.
  std::vector<Example> grown = MakeGrownSession(sessions[0]);
  RankRequest grown_request;
  grown_request.session_id = request.session_id;
  for (const Example& ex : grown) grown_request.items.push_back(&ex);
  RankResponse fresh = engine.Rank(grown_request);
  EXPECT_FALSE(fresh.score_cache_hit);
  EXPECT_GE(fresh.replica, 0);
  EXPECT_EQ(engine.stats().Snapshot().score_cache_invalidations, 1);

  // The recomputed scores match an engine that never saw the old state.
  auto clean_owner = MakeRegistry();
  ServingEngine clean(&*clean_owner);
  RankResponse expected = clean.Rank(grown_request);
  ASSERT_EQ(fresh.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(fresh.scores[i], expected.scores[i]) << "item " << i;
  }

  // And the old (pre-click) request no longer hits either: the whole
  // session was invalidated, not just the new key.
  EXPECT_FALSE(engine.Rank(request).score_cache_hit);
}

TEST_F(ServingTest, ScoreCacheColdAfterHotSwap) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_FALSE(engine.Rank(request).score_cache_hit);
  EXPECT_TRUE(engine.Rank(request).score_cache_hit);

  // Publish a new version (identical weights — the point is the cache
  // scoping, not the scores): the new snapshot starts cache-cold.
  const int64_t v2 = registry.UpdateModel("aw-moe", model_->Clone());
  RankResponse after = engine.Rank(request);
  EXPECT_FALSE(after.score_cache_hit);
  EXPECT_EQ(after.model_version, v2);
  // The repeat on the new snapshot caches again.
  EXPECT_TRUE(engine.Rank(request).score_cache_hit);
}

TEST_F(ServingTest, ScoreCacheCountersAndGaugesTrack) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];

  engine.Rank(request);  // Cold: one miss.
  EXPECT_EQ(engine.stats().Snapshot().score_cache_hits, 0);
  EXPECT_EQ(engine.stats().Snapshot().score_cache_misses, 1);
  engine.Rank(request);  // Repeat: one hit.
  EXPECT_EQ(engine.stats().Snapshot().score_cache_hits, 1);
  EXPECT_EQ(engine.stats().Snapshot().score_cache_misses, 1);

  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.score_cache_hits, 1);
  EXPECT_EQ(snap.score_cache_misses, 1);
  // Live occupancy gauges from the pool: one score entry, one gate row,
  // one encoding row resident, all with non-zero byte estimates.
  EXPECT_EQ(snap.score_cache_entries, 1);
  EXPECT_GT(snap.score_cache_bytes, 0);
  EXPECT_EQ(snap.encoding_cache_entries, 1);
  EXPECT_GT(snap.encoding_cache_bytes, 0);
  EXPECT_EQ(snap.gate_cache_entries, 1);
  EXPECT_GT(snap.gate_cache_bytes, 0);
  // Split latency histograms: one sample each.
  EXPECT_EQ(snap.score_hit_latency.count(), 1);
  EXPECT_EQ(snap.score_miss_latency.count(), 1);
  EXPECT_GT(snap.score_miss_p99_ms, 0.0);

  // A hot swap retires the old snapshot's caches: gauges drop to zero.
  registry.UpdateModel("aw-moe", model_->Clone());
  ServingStatsSnapshot after = engine.Stats();
  EXPECT_EQ(after.score_cache_entries, 0);
  EXPECT_EQ(after.score_cache_bytes, 0);
}

TEST_F(ServingTest, ScoreCacheDisabledNeverHits) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;
  ServingEngine engine(&registry, options);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  engine.Rank(request);
  RankResponse second = engine.Rank(request);
  EXPECT_FALSE(second.score_cache_hit);
  EXPECT_GE(second.replica, 0);
  // No lookups at all.
  EXPECT_EQ(engine.stats().Snapshot().score_cache_hits, 0);
  EXPECT_EQ(engine.stats().Snapshot().score_cache_misses, 0);
}

TEST_F(ServingTest, EncodingCacheHitsOnNewCandidatesSameSession) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  // Page 1: session 0's own candidates. Page 2: same session context,
  // DIFFERENT candidates (borrowed items re-stamped with session 0's
  // user/query/history) — a score-cache miss by construction, but the
  // session encoding and gate row are reusable.
  RankRequest page1;
  page1.session_id = sessions[0][0]->session_id;
  page1.items = sessions[0];
  std::vector<Example> page2_items;
  for (const Example* ex : sessions[1]) {
    Example copy = *ex;
    const Example& ctx = *sessions[0][0];
    copy.session_id = ctx.session_id;
    copy.user_id = ctx.user_id;
    copy.age_segment = ctx.age_segment;
    copy.query_id = ctx.query_id;
    copy.query_cat = ctx.query_cat;
    copy.behavior_items = ctx.behavior_items;
    copy.behavior_cats = ctx.behavior_cats;
    copy.behavior_brands = ctx.behavior_brands;
    copy.behavior_attrs = ctx.behavior_attrs;
    page2_items.push_back(std::move(copy));
  }
  RankRequest page2;
  page2.session_id = page1.session_id;
  for (const Example& ex : page2_items) page2.items.push_back(&ex);

  RankResponse first = engine.Rank(page1);
  EXPECT_FALSE(first.encoding_cache_hit);
  RankResponse second = engine.Rank(page2);
  EXPECT_FALSE(second.score_cache_hit);  // New candidates.
  EXPECT_TRUE(second.encoding_cache_hit);
  EXPECT_TRUE(second.gate_cache_hit);
  EXPECT_EQ(engine.stats().Snapshot().encoding_cache_hits, 1);

  // The encoding-replay scores are bitwise-equal to a cold engine's.
  auto clean_owner = MakeRegistry();
  ServingEngine clean(&*clean_owner);
  RankResponse expected = clean.Rank(page2);
  ASSERT_EQ(second.scores.size(), expected.scores.size());
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(second.scores[i], expected.scores[i]) << "item " << i;
  }
}

TEST_F(ServingTest, EncodingPathBitwiseIdenticalToDisabled) {
  // The level-2 split path (EncodeSessionInto + ScoreWithSessionInto)
  // on the full test traffic must reproduce the plain fused engine
  // bitwise — cache hits, probes and replication included.
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions split_options;
  split_options.score_cache_capacity = 0;  // Force every forward to run.
  ServingEngine split_engine(&registry, split_options);

  auto fused_owner = MakeRegistry();
  ServingEngineOptions fused_options;
  fused_options.score_cache_capacity = 0;
  fused_options.share_session_encoding = false;
  ServingEngine fused_engine(&*fused_owner, fused_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = split_engine.RankBatch(requests);
  auto b = fused_engine.RankBatch(requests);
  // Run the same traffic twice so cross-request encoding hits serve.
  auto a2 = split_engine.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  int64_t encoding_hits = 0;
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].scores.size(), b[s].scores.size());
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i])
          << "cold session " << a[s].session_id << " item " << i;
      EXPECT_EQ(a2[s].scores[i], b[s].scores[i])
          << "warm session " << a[s].session_id << " item " << i;
    }
    if (a2[s].encoding_cache_hit) ++encoding_hits;
  }
  EXPECT_GT(encoding_hits, 0);
}

TEST_F(ServingTest, EncodingDisabledStillScoresIdentically) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.score_cache_capacity = 0;
  options.encoding_cache_capacity = 0;  // Within-request sharing only.
  ServingEngine engine(&registry, options);

  auto fused_owner = MakeRegistry();
  ServingEngineOptions fused_options;
  fused_options.score_cache_capacity = 0;
  fused_options.share_session_encoding = false;
  ServingEngine fused(&*fused_owner, fused_options);

  auto requests = MakeSessionRequests(GroupBySession(data_->full_test));
  auto a = engine.RankBatch(requests);
  auto b = fused.RankBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_FALSE(a[s].encoding_cache_hit);
    for (size_t i = 0; i < a[s].scores.size(); ++i) {
      EXPECT_EQ(a[s].scores[i], b[s].scores[i]) << "item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Registry and routing.
// ---------------------------------------------------------------------

TEST_F(ServingTest, RegistryRoutesNamedAndDefaultModels) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("control", model_);
  registry.Register("treatment", second_model_);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.default_model(), "control");
  EXPECT_EQ(registry.Resolve(""), model_);
  EXPECT_EQ(registry.Resolve("treatment"), second_model_);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  registry.SetDefault("treatment");
  EXPECT_EQ(registry.Resolve(""), second_model_);

  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  RankRequest request;
  request.session_id = sessions[0][0]->session_id;
  request.items = sessions[0];
  EXPECT_EQ(engine.Rank(request).model, "treatment");
  request.model = "control";
  EXPECT_EQ(engine.Rank(request).model, "control");
}

TEST_F(ServingTest, TwoModelsInOneEngineScoreIndependently) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("control", model_);
  registry.Register("treatment", second_model_);
  ServingEngine engine(&registry);

  // Per-model reference engines.
  ModelPool control_only(data_->meta, standardizer_);
  control_only.Register("control", model_);
  ServingEngine control_engine(&control_only);
  ModelPool treatment_only(data_->meta, standardizer_);
  treatment_only.Register("treatment", second_model_);
  ServingEngine treatment_engine(&treatment_only);

  auto sessions = GroupBySession(data_->full_test);
  std::vector<RankRequest> mixed;
  for (size_t s = 0; s < 10 && s < sessions.size(); ++s) {
    RankRequest request;
    request.session_id = sessions[s][0]->session_id;
    request.model = (s % 2 == 0) ? "control" : "treatment";
    request.items = sessions[s];
    mixed.push_back(std::move(request));
  }
  auto responses = engine.RankBatch(mixed);
  for (size_t s = 0; s < mixed.size(); ++s) {
    ServingEngine& reference =
        (s % 2 == 0) ? control_engine : treatment_engine;
    RankRequest solo = mixed[s];
    solo.model.clear();
    auto expected = reference.Rank(solo);
    ASSERT_EQ(responses[s].scores.size(), expected.scores.size());
    for (size_t i = 0; i < expected.scores.size(); ++i) {
      EXPECT_EQ(responses[s].scores[i], expected.scores[i]);
    }
  }
}

// ---------------------------------------------------------------------
// ServingStats.
// ---------------------------------------------------------------------

/// Records one request of `items` candidates as its own micro-batch.
void RecordOne(ServingStats* stats, int64_t items, double latency_ms) {
  stats->RecordMicroBatch(
      items, {RequestSample{.items = items, .latency_ms = latency_ms}});
}

TEST(ServingStatsTest, PercentilesAreExactOverSamples) {
  ServingStats stats;
  // 1..100 ms, shuffled order must not matter.
  for (int ms = 100; ms >= 1; --ms) {
    RecordOne(&stats, /*items=*/2, static_cast<double>(ms));
  }
  EXPECT_EQ(stats.requests(), 100);
  EXPECT_EQ(stats.Snapshot().items, 200);
  EXPECT_DOUBLE_EQ(stats.total_ms() / stats.requests(), 50.5);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentileMs(50.0), 50.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentileMs(95.0), 95.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentileMs(99.0), 99.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentileMs(100.0), 100.0);
  ServingStatsSnapshot snap = stats.Snapshot();
  EXPECT_DOUBLE_EQ(snap.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(snap.p95_ms, 95.0);
  EXPECT_DOUBLE_EQ(snap.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(snap.mean_ms, 50.5);
  EXPECT_GT(snap.qps, 0.0);
  stats.Reset();
  EXPECT_EQ(stats.requests(), 0);
  EXPECT_DOUBLE_EQ(stats.total_ms(), 0.0);
  EXPECT_DOUBLE_EQ(stats.LatencyPercentileMs(99.0), 0.0);
}

// Records `count` requests of `items` candidates and `latency_ms` each
// into `stats` as one micro-batch, alternately score-cache hits and
// misses (by request index and latency, so one-request loads alternate
// too), plus one single-slate rerank stage of the same latency per
// request: every latency histogram gets the load.
void RecordLoad(ServingStats* stats, int count, int64_t items,
                double latency_ms) {
  std::vector<RequestSample> batch;
  for (int i = 0; i < count; ++i) {
    const int score_lookup = (i + static_cast<int>(latency_ms)) % 2;
    batch.push_back({.items = items,
                     .latency_ms = latency_ms,
                     .score_lookup = score_lookup});
    stats->RecordSlateBatch(std::span<const int64_t>(&items, 1),
                            latency_ms);
  }
  stats->RecordMicroBatch(items * count, batch);
}

TEST(ServingStatsTest, MergeFromEqualsRecordingTheUnion) {
  struct Load {
    int count;
    int64_t items;
    double latency_ms;
  };
  struct Input {
    std::vector<Load> a;
    std::vector<Load> b;
  };
  std::vector<Input> inputs(2);
  // Two disjoint shards: 1..50 ms on a, 51..100 ms on b.
  for (int ms = 1; ms <= 50; ++ms) inputs[0].a.push_back({1, 2, 1.0 * ms});
  for (int ms = 51; ms <= 100; ++ms) inputs[0].b.push_back({1, 3, 1.0 * ms});
  // Unequal traffic: a heavy fast shard and a light slow one. Pooling
  // must weigh each shard by its traffic at any volume (a capped
  // per-source sample would weigh them equally and read p99 = 100 ms).
  inputs[1].a.push_back({200000, 2, 1.0});
  inputs[1].b.push_back({1000, 3, 100.0});

  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    ServingStats a;
    ServingStats b;
    // ...and one stats object that saw every request directly.
    ServingStats direct;
    for (const Load& load : inputs[i].a) {
      RecordLoad(&a, load.count, load.items, load.latency_ms);
      RecordLoad(&direct, load.count, load.items, load.latency_ms);
    }
    for (const Load& load : inputs[i].b) {
      RecordLoad(&b, load.count, load.items, load.latency_ms);
      RecordLoad(&direct, load.count, load.items, load.latency_ms);
    }

    ServingStats merged;
    merged.MergeFrom(a.Snapshot());
    merged.MergeFrom(b.Snapshot());
    const ServingStatsSnapshot got = merged.Snapshot();
    const ServingStatsSnapshot want = direct.Snapshot();

    // Histogram merging is EXACT at any volume: same counts, same mean,
    // same buckets and percentiles as recording the union into one
    // object.
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.items, want.items);
    EXPECT_DOUBLE_EQ(got.total_ms, want.total_ms);
    EXPECT_DOUBLE_EQ(got.mean_ms, want.mean_ms);
    EXPECT_DOUBLE_EQ(got.p50_ms, want.p50_ms);
    EXPECT_DOUBLE_EQ(got.p95_ms, want.p95_ms);
    EXPECT_DOUBLE_EQ(got.p99_ms, want.p99_ms);
    EXPECT_EQ(got.latency.count(), want.requests);
    EXPECT_TRUE(got.latency == want.latency);
    EXPECT_TRUE(got.score_hit_latency == want.score_hit_latency);
    EXPECT_TRUE(got.score_miss_latency == want.score_miss_latency);
    EXPECT_TRUE(got.rerank_latency == want.rerank_latency);
    EXPECT_DOUBLE_EQ(got.score_hit_p50_ms, want.score_hit_p50_ms);
    EXPECT_DOUBLE_EQ(got.score_hit_p99_ms, want.score_hit_p99_ms);
    EXPECT_DOUBLE_EQ(got.score_miss_p50_ms, want.score_miss_p50_ms);
    EXPECT_DOUBLE_EQ(got.score_miss_p99_ms, want.score_miss_p99_ms);
    EXPECT_DOUBLE_EQ(got.rerank_p50_ms, want.rerank_p50_ms);
    EXPECT_DOUBLE_EQ(got.rerank_p99_ms, want.rerank_p99_ms);
  }
}

TEST(ServingStatsTest, MergeFromPoolsCountersNotAverages) {
  // a: one batch of 4 requests (40 items), one of them queued 2 ms
  // with a gate hit. b: two 1-request batches of 5 items, one queued
  // 6 ms with a gate miss.
  const RequestSample plain{.items = 10, .latency_ms = 1.0};
  ServingStats a;
  a.RecordMicroBatch(/*batch_items=*/40,
                     {RequestSample{.items = 10,
                                    .latency_ms = 1.0,
                                    .queue_ms = 2.0,
                                    .gate_lookup = 1},
                      plain, plain, plain});
  ServingStats b;
  b.RecordMicroBatch(/*batch_items=*/5, {RequestSample{.items = 5,
                                                       .latency_ms = 3.0,
                                                       .queue_ms = 6.0,
                                                       .gate_lookup = 0}});
  b.RecordMicroBatch(/*batch_items=*/5,
                     {RequestSample{.items = 5, .latency_ms = 3.0}});

  ServingStats merged;
  merged.MergeFrom(a.Snapshot());
  merged.MergeFrom(b.Snapshot());
  const ServingStatsSnapshot got = merged.Snapshot();
  EXPECT_EQ(got.batches, 3);
  // Pooled occupancy: (4+1+1)/3 — NOT the average of per-shard means
  // ((4.0 + 1.0) / 2 = 2.5).
  EXPECT_DOUBLE_EQ(got.mean_batch_requests, 2.0);
  EXPECT_EQ(got.max_batch_requests, 4);
  EXPECT_EQ(got.queued_requests, 2);
  EXPECT_DOUBLE_EQ(got.queue_mean_ms, 4.0);
  EXPECT_DOUBLE_EQ(got.queue_max_ms, 6.0);
  EXPECT_EQ(got.gate_cache_hits, 1);
  EXPECT_EQ(got.gate_cache_misses, 1);
  EXPECT_DOUBLE_EQ(got.queue_total_ms, 8.0);

  // Reset clears merged state too.
  merged.Reset();
  EXPECT_EQ(merged.Snapshot().requests, 0);
  EXPECT_EQ(merged.Snapshot().batches, 0);
}

TEST(ServingStatsTest, MergeFromTakesMaxWallClockForQps) {
  ServingStats a;
  ServingStats b;
  for (int i = 0; i < 10; ++i) {
    RecordOne(&a, 1, 1.0);
    RecordOne(&b, 1, 1.0);
  }
  const ServingStatsSnapshot sa = a.Snapshot();
  const ServingStatsSnapshot sb = b.Snapshot();
  ServingStats merged;
  merged.MergeFrom(sa);
  merged.MergeFrom(sb);
  const ServingStatsSnapshot got = merged.Snapshot();
  // Concurrent shards share the wall: 20 requests over max(wall_a,
  // wall_b) seconds, not over their sum.
  EXPECT_EQ(got.requests, 20);
  EXPECT_GE(got.wall_seconds, std::max(sa.wall_seconds, sb.wall_seconds));
  if (got.wall_seconds > 0.0) {
    EXPECT_NEAR(got.qps,
                20.0 / got.wall_seconds,
                1e-6 * got.qps + 1e-9);
  }
}

TEST_F(ServingTest, EngineStatsAccumulatePerRequest) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);
  auto requests = MakeSessionRequests(
      {sessions.begin(), sessions.begin() + 3});
  engine.RankBatch(requests);
  EXPECT_EQ(engine.stats().requests(), 3);
  EXPECT_EQ(engine.stats().Snapshot().items,
            static_cast<int64_t>(sessions[0].size() + sessions[1].size() +
                                 sessions[2].size()));
  EXPECT_GT(engine.stats().total_ms(), 0.0);
  EXPECT_GT(engine.Stats().p99_ms, 0.0);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().requests(), 0);
}

// ---------------------------------------------------------------------
// A/B testing on the engine API.
// ---------------------------------------------------------------------

TEST_F(ServingTest, AbTestIsPairedAndDeterministic) {
  ModelPool registry(data_->meta, standardizer_);
  registry.Register("control", model_);
  registry.Register("treatment", second_model_);
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data_->full_test);

  AbTestResult r1 = RunAbTest(&engine, "control", "treatment", sessions, 42);
  AbTestResult r2 = RunAbTest(&engine, "control", "treatment", sessions, 42);
  EXPECT_EQ(r1.control.uctr, r2.control.uctr);
  EXPECT_EQ(r1.treatment.ucvr, r2.treatment.ucvr);
  EXPECT_EQ(r1.control.session_clicked.size(), sessions.size());
  EXPECT_GE(r1.control.uctr, 0.0);
  EXPECT_LE(r1.control.uctr, 1.0);

  // Same model in both arms -> identical outcomes, lift 0, p = 1.
  AbTestResult same = RunAbTest(&engine, "control", "control", sessions, 42);
  EXPECT_DOUBLE_EQ(same.uctr_lift_percent, 0.0);
  EXPECT_DOUBLE_EQ(same.ucvr_lift_percent, 0.0);
  EXPECT_DOUBLE_EQ(same.uctr_p_value, 1.0);
}

}  // namespace
}  // namespace awmoe
