// Slate scoring through the serving stack: a slate-scoring model's
// request rows stay atomic within one forward (scores independent of
// micro-batch composition under concurrent async load), the level-1
// score cache is bypassed for slate models (a cached pointwise score
// would drop the slate context), the slate stats counters are exact,
// and the two-stage retrieve -> rerank pipeline composes both models
// behind one engine. Worker threads only collect results; assertions
// run on the main thread after joining.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/listwise/listwise_reranker.h"
#include "nn/inference.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "serving/two_stage.h"
#include "util/rng.h"
#include "lane_hold.h"

namespace awmoe {
namespace {

// Solo-vs-batched comparisons are bitwise at every tier (the slate
// attention core is always the scalar slate-local kernels), but the
// suite pins the reference tier so failures reproduce identically on
// every host.
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

ListwiseDims SmallListwiseDims() {
  ListwiseDims ldims;
  ldims.d_model = 8;
  ldims.num_heads = 2;
  ldims.num_layers = 1;
  ldims.ffn_hidden = {12};
  ldims.head_hidden = {6};
  ldims.max_slate_len = 64;
  return ldims;
}

class SlateServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.num_users = 200;
    jd.num_items = 150;
    jd.num_categories = 8;
    jd.brands_per_category = 4;
    jd.num_shops = 15;
    jd.train_sessions = 50;
    jd.test_sessions = 40;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 777;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng pointwise_rng(17);
    pointwise_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(),
                                 &pointwise_rng);
    Rng listwise_rng(29);
    listwise_ = new ListwiseReranker(data_->meta, SmallAwMoeConfig().dims,
                                     SmallListwiseDims(), &listwise_rng);
    sessions_ = new std::vector<std::vector<const Example*>>(
        GroupBySession(data_->full_test));
  }
  static void TearDownTestSuite() {
    delete sessions_;
    delete listwise_;
    delete pointwise_;
    delete standardizer_;
    delete data_;
    sessions_ = nullptr;
    listwise_ = nullptr;
    pointwise_ = nullptr;
    standardizer_ = nullptr;
    data_ = nullptr;
  }

  /// Both models behind one pool: "aw-moe" (default route, pointwise)
  /// and "listwise" (slate-scoring).
  static std::unique_ptr<ModelPool> MakeRegistry(int replicas = 1) {
    ModelPoolOptions options;
    options.replicas = replicas;
    auto pool =
        std::make_unique<ModelPool>(data_->meta, standardizer_, options);
    pool->Register("aw-moe", pointwise_);
    pool->Register("listwise", listwise_);
    return pool;
  }

  static RankRequest RequestFor(size_t s, const std::string& model) {
    const auto& session = (*sessions_)[s % sessions_->size()];
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.model = model;
    request.items = session;
    return request;
  }

  static int64_t ItemsOf(size_t s) {
    return static_cast<int64_t>((*sessions_)[s % sessions_->size()].size());
  }

  /// The fields every admission rejection carries, identical on the
  /// sync, async and pinned-snapshot backstop paths.
  static void ExpectRejected(const RankResponse& response,
                             const RankRequest& request, int64_t version,
                             RolloutArm arm = RolloutArm::kStable) {
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(response.scores.empty());
    EXPECT_EQ(response.session_id, request.session_id);
    EXPECT_EQ(response.model, request.model);
    EXPECT_EQ(response.model_version, version);
    EXPECT_EQ(response.arm, arm);
    EXPECT_EQ(response.replica, -1);
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* pointwise_;
  static ListwiseReranker* listwise_;
  static std::vector<std::vector<const Example*>>* sessions_;
};

JdDataset* SlateServingTest::data_ = nullptr;
Standardizer* SlateServingTest::standardizer_ = nullptr;
AwMoeRanker* SlateServingTest::pointwise_ = nullptr;
ListwiseReranker* SlateServingTest::listwise_ = nullptr;
std::vector<std::vector<const Example*>>* SlateServingTest::sessions_ =
    nullptr;

// ---------------------------------------------------------------------
// The score-cache bypass: an exact repeat request to a slate-scoring
// model must re-run the forward (a level-1 hit would freeze the scores
// against future slate recompositions), while the pointwise model's
// repeat keeps hitting as before.
// ---------------------------------------------------------------------

TEST_F(SlateServingTest, ScoreCacheBypassedForSlateScoringModel) {
  auto registry = MakeRegistry();
  ServingEngine engine(registry.get());  // score_cache_capacity = 4096 on.

  RankResponse first = engine.Rank(RequestFor(0, "listwise"));
  RankResponse second = engine.Rank(RequestFor(0, "listwise"));
  ASSERT_TRUE(first.status.ok()) << first.status;
  ASSERT_TRUE(second.status.ok()) << second.status;
  // Both runs executed a forward on a leased replica lane; neither was
  // served from the level-1 cache.
  EXPECT_FALSE(first.score_cache_hit);
  EXPECT_FALSE(second.score_cache_hit);
  EXPECT_GE(first.replica, 0);
  EXPECT_GE(second.replica, 0);
  // Determinism still holds — same slate, same snapshot, same scores.
  ASSERT_EQ(first.scores.size(), second.scores.size());
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(first.scores[i], second.scores[i]) << "item " << i;
  }

  // The pointwise control: the identical repeat IS a level-1 hit.
  RankResponse miss = engine.Rank(RequestFor(0, "aw-moe"));
  RankResponse hit = engine.Rank(RequestFor(0, "aw-moe"));
  ASSERT_TRUE(hit.status.ok()) << hit.status;
  EXPECT_FALSE(miss.score_cache_hit);
  EXPECT_TRUE(hit.score_cache_hit);
  EXPECT_EQ(hit.replica, -1);

  // Each listwise Rank was one single-slate micro-batch.
  EXPECT_EQ(engine.stats().Snapshot().slates, 2);
  EXPECT_EQ(engine.stats().Snapshot().slate_items, 2 * ItemsOf(0));
}

// ---------------------------------------------------------------------
// Oversized-slate admission: a request with more candidates than the
// listwise model's max slate length is REJECTED with kInvalidArgument
// on both serving fronts — it must never reach the forward path, whose
// slate-length CHECK would abort the whole process. Valid requests in
// the same batch are served normally, and the pointwise route (no
// slate cap) still accepts arbitrarily large candidate sets.
// ---------------------------------------------------------------------

TEST_F(SlateServingTest, OversizedSlateRejectedNotAborted) {
  auto registry = MakeRegistry();
  ServingEngine engine(registry.get());
  const int64_t cap = listwise_->Traits(data_->meta).max_slate_items;
  ASSERT_GT(cap, 0);

  RankRequest oversized = RequestFor(0, "listwise");
  const Example* filler = oversized.items[0];
  while (static_cast<int64_t>(oversized.items.size()) <= cap) {
    oversized.items.push_back(filler);
  }

  // Sync front: the oversized request is rejected, its neighbours in
  // the same RankBatch are served.
  std::vector<RankRequest> mixed;
  mixed.push_back(RequestFor(1, "listwise"));
  mixed.push_back(oversized);
  mixed.push_back(RequestFor(2, "listwise"));
  std::vector<RankResponse> responses = engine.RankBatch(mixed);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status;
  EXPECT_EQ(responses[0].scores.size(), mixed[0].items.size());
  ExpectRejected(responses[1], oversized, /*version=*/1);
  EXPECT_TRUE(responses[2].status.ok()) << responses[2].status;
  EXPECT_EQ(responses[2].scores.size(), mixed[2].items.size());
  // Only the served slates hit the counters.
  EXPECT_EQ(engine.stats().Snapshot().slates, 2);

  // Async front: rejected before occupying queue space, future resolves
  // with the same status.
  RankResponse async_response = engine.Submit(oversized).get();
  ExpectRejected(async_response, oversized, /*version=*/1);

  // The engine survives both rejections and keeps serving.
  RankResponse after = engine.Rank(RequestFor(3, "listwise"));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.scores.size(), (*sessions_)[3 % sessions_->size()].size());

  // The pointwise route has no slate cap: the same oversized candidate
  // set serves fine.
  RankRequest pointwise = oversized;
  pointwise.model = "aw-moe";
  RankResponse served = engine.Rank(pointwise);
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(served.scores.size(), pointwise.items.size());

  // Forced onto a staged candidate, the rejection reports the arm and
  // version it was admitted against, on both fronts.
  Rng rng(37);
  const int64_t candidate = registry->StageCandidate(
      "listwise", std::make_unique<ListwiseReranker>(
                      data_->meta, SmallAwMoeConfig().dims,
                      SmallListwiseDims(), &rng));
  RankRequest routed = oversized;
  routed.arm_policy = ArmPolicy::kForceCandidate;
  ExpectRejected(engine.Rank(routed), routed, candidate,
                 RolloutArm::kCandidate);
  ExpectRejected(engine.Submit(routed).get(), routed, candidate,
                 RolloutArm::kCandidate);
}

// The backstop path: a request admitted under one slate cap, then a hot
// swap to a model with a smaller cap before its micro-batch pins a
// snapshot. The flush re-admits against the pinned snapshot and rejects
// with the same response fields as the two front doors.
TEST_F(SlateServingTest, OversizedSlateRejectedAtPinnedSnapshotBackstop) {
  auto registry = MakeRegistry();
  ServingEngine engine(registry.get());
  // A pointwise blocker parked on the held "aw-moe" lane keeps the one
  // flush lane busy, so the slate below stays queued across the swap.
  LaneHold hold(*registry, "aw-moe");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(1, "aw-moe"));

  RankRequest request = RequestFor(0, "listwise");
  const Example* filler = request.items[0];
  while (request.items.size() < 10) request.items.push_back(filler);
  std::future<RankResponse> queued = engine.Submit(request);
  ASSERT_EQ(engine.pending_async_requests(), 1);

  ListwiseDims capped = SmallListwiseDims();
  capped.max_slate_len = 5;
  Rng rng(41);
  const int64_t version = registry->UpdateModel(
      "listwise", std::make_unique<ListwiseReranker>(
                      data_->meta, SmallAwMoeConfig().dims, capped, &rng));
  ASSERT_EQ(version, 2);

  hold.Release();
  engine.Stop(/*drain=*/true);
  EXPECT_TRUE(blocker.get().status.ok());
  ExpectRejected(queued.get(), request, version);
  // Only the pointwise blocker was served: no slate reached the forward.
  EXPECT_EQ(engine.stats().Snapshot().slates, 0);
  EXPECT_EQ(engine.stats().requests(), 1);
}

// ---------------------------------------------------------------------
// Slate atomicity under concurrent async load: four threads storm
// Submit with mixed slate sizes; every response must be bitwise what a
// solo synchronous Rank of just that slate computes, no matter which
// other slates shared its micro-batch.
// ---------------------------------------------------------------------

TEST_F(SlateServingTest, ConcurrentSlateSubmitsMatchSoloRankBitwise) {
  // Expected scores: each session alone through a fresh engine.
  auto reference_registry = MakeRegistry();
  ServingEngine reference(reference_registry.get());
  std::vector<std::vector<double>> expected(sessions_->size());
  for (size_t s = 0; s < sessions_->size(); ++s) {
    RankResponse solo = reference.Rank(RequestFor(s, "listwise"));
    ASSERT_TRUE(solo.status.ok()) << solo.status;
    expected[s] = solo.scores;
  }

  auto registry = MakeRegistry(/*replicas=*/2);
  ServingEngine engine(registry.get());

  constexpr size_t kThreads = 4;
  const size_t kSubmits = 2 * sessions_->size();
  std::vector<std::vector<RankResponse>> results(
      kThreads, std::vector<RankResponse>(kSubmits));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, kSubmits, &engine, &results] {
      std::vector<std::future<RankResponse>> futures;
      futures.reserve(kSubmits);
      for (size_t m = 0; m < kSubmits; ++m) {
        futures.push_back(engine.Submit(RequestFor(t + m, "listwise")));
      }
      for (size_t m = 0; m < kSubmits; ++m) {
        results[t][m] = futures[m].get();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t m = 0; m < kSubmits; ++m) {
      const RankResponse& response = results[t][m];
      const std::vector<double>& want =
          expected[(t + m) % sessions_->size()];
      ASSERT_TRUE(response.status.ok()) << response.status;
      ASSERT_EQ(response.scores.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(response.scores[i], want[i])
            << "thread " << t << " submit " << m << " item " << i;
      }
    }
  }
  // Every submit was slate-scored exactly once (no cache shortcuts).
  EXPECT_EQ(engine.stats().Snapshot().slates,
            static_cast<int64_t>(kThreads * kSubmits));
}

// ---------------------------------------------------------------------
// Slate stats: counters exact, histogram partitions the slates, rerank
// latency histogram carries percentiles, MergeFrom sums into a fleet
// sink.
// ---------------------------------------------------------------------

TEST_F(SlateServingTest, SlateStatsCountExactlyAndMerge) {
  auto registry = MakeRegistry();
  ServingEngine engine(registry.get());

  constexpr size_t kRequests = 12;
  int64_t want_items = 0;
  for (size_t s = 0; s < kRequests; ++s) {
    RankResponse response = engine.Rank(RequestFor(s, "listwise"));
    ASSERT_TRUE(response.status.ok()) << response.status;
    want_items += ItemsOf(s);
  }
  // The pointwise route must not touch the slate counters.
  ASSERT_TRUE(engine.Rank(RequestFor(0, "aw-moe")).status.ok());

  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_EQ(snap.slates, static_cast<int64_t>(kRequests));
  EXPECT_EQ(snap.slate_items, want_items);
  EXPECT_DOUBLE_EQ(snap.mean_slate_items,
                   static_cast<double>(want_items) /
                       static_cast<double>(kRequests));
  // The size histogram partitions the slates exactly.
  EXPECT_EQ(snap.slates_le10 + snap.slates_le25 + snap.slates_le50 +
                snap.slates_gt50,
            snap.slates);
  // One rerank-latency sample per slate forward.
  EXPECT_EQ(snap.rerank_latency.count(), snap.slates);
  EXPECT_GE(snap.rerank_p99_ms, snap.rerank_p50_ms);
  EXPECT_GT(snap.rerank_p50_ms, 0.0);

  // Fleet aggregation: merging twice into a sink doubles every slate
  // counter exactly.
  ServingStats sink;
  sink.MergeFrom(snap);
  sink.MergeFrom(snap);
  ServingStatsSnapshot merged = sink.Snapshot();
  EXPECT_EQ(merged.slates, 2 * snap.slates);
  EXPECT_EQ(merged.slate_items, 2 * snap.slate_items);
  EXPECT_EQ(merged.slates_le10, 2 * snap.slates_le10);
  EXPECT_EQ(merged.slates_gt50, 2 * snap.slates_gt50);
  EXPECT_DOUBLE_EQ(merged.mean_slate_items, snap.mean_slate_items);
  EXPECT_EQ(merged.rerank_latency.count(), 2 * snap.slates);
  EXPECT_DOUBLE_EQ(merged.rerank_p50_ms, snap.rerank_p50_ms);
  EXPECT_DOUBLE_EQ(merged.rerank_p99_ms, snap.rerank_p99_ms);
}

// ---------------------------------------------------------------------
// The two-stage pipeline: retrieval prunes, the reranker re-scores the
// slate through the engine, and the blended ranking puts the reranked
// slate ahead of the retrieval tail.
// ---------------------------------------------------------------------

TEST_F(SlateServingTest, TwoStagePipelineBlendsRetrievalAndRerank) {
  auto registry = MakeRegistry();
  ServingEngine engine(registry.get());
  TwoStageOptions options;
  options.retrieval_model = "aw-moe";
  options.rerank_model = "listwise";
  options.top_k = 5;
  TwoStageRanker pipeline(&engine, options);

  // A session bigger than top_k, so pruning actually happens.
  size_t big = 0;
  for (size_t s = 0; s < sessions_->size(); ++s) {
    if (ItemsOf(s) > options.top_k) {
      big = s;
      break;
    }
  }
  ASSERT_GT(ItemsOf(big), options.top_k);
  const RankRequest request = RequestFor(big, "");
  TwoStageResult result = pipeline.Rank(request);
  ASSERT_TRUE(result.status.ok()) << result.status;
  const size_t n = request.items.size();
  ASSERT_EQ(result.retrieval_scores.size(), n);
  ASSERT_EQ(result.slate.size(), static_cast<size_t>(options.top_k));
  ASSERT_EQ(result.rerank_scores.size(), result.slate.size());
  ASSERT_EQ(result.final_scores.size(), n);
  ASSERT_EQ(result.ranking.size(), n);

  // The slate is the retrieval top-K in descending score order.
  for (size_t j = 1; j < result.slate.size(); ++j) {
    EXPECT_GE(result.retrieval_scores[result.slate[j - 1]],
              result.retrieval_scores[result.slate[j]]);
  }
  // Blend: slate members carry 1 + rerank (so they all outrank the
  // tail), the tail keeps its retrieval score.
  std::vector<bool> in_slate(n, false);
  for (size_t j = 0; j < result.slate.size(); ++j) {
    in_slate[result.slate[j]] = true;
    EXPECT_EQ(result.final_scores[result.slate[j]],
              1.0 + result.rerank_scores[j]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!in_slate[i]) {
      EXPECT_EQ(result.final_scores[i], result.retrieval_scores[i]);
    }
  }
  // The ranking is final_scores descending; its first top_k entries are
  // exactly the slate members.
  for (size_t j = 1; j < n; ++j) {
    EXPECT_GE(result.final_scores[result.ranking[j - 1]],
              result.final_scores[result.ranking[j]]);
  }
  for (size_t j = 0; j < result.slate.size(); ++j) {
    EXPECT_TRUE(in_slate[result.ranking[j]]) << "rank " << j;
  }

  // Stage 2 really went through the engine's slate path: the rerank
  // scores are bitwise a direct engine Rank of the slate request.
  RankRequest slate_request;
  slate_request.session_id = request.session_id;
  slate_request.model = "listwise";
  for (size_t idx : result.slate) {
    slate_request.items.push_back(request.items[idx]);
  }
  RankResponse direct = engine.Rank(slate_request);
  ASSERT_TRUE(direct.status.ok()) << direct.status;
  ASSERT_EQ(direct.scores.size(), result.rerank_scores.size());
  for (size_t j = 0; j < direct.scores.size(); ++j) {
    EXPECT_EQ(direct.scores[j], result.rerank_scores[j]) << "slate " << j;
  }
}

}  // namespace
}  // namespace awmoe
