// Concurrency suite for the async Submit() -> future serving front.
// Worker threads only collect results; all gtest assertions run on the
// main thread after joining (gtest assertions are not thread-safe).
// The whole binary runs under a CTest TIMEOUT (tests/CMakeLists.txt),
// so a deadlocked drain/shutdown path fails instead of hanging CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "mat/kernels.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "lane_hold.h"
#include "malformed_items.h"

namespace awmoe {
namespace {

// The async suite cross-checks engine scores against the autograd
// (Var-graph) forward bitwise, so it pins the reference kernel tier
// (fast-tier agreement is epsilon-bounded; see kernel_tier_test.cc).
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

class AsyncServingTest : public ::testing::Test {
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
    jd.seed = 321;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng(17);
    model_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng);
    sessions_ = new std::vector<std::vector<const Example*>>(
        GroupBySession(data_->full_test));
  }
  static void TearDownTestSuite() {
    delete sessions_;
    delete model_;
    delete standardizer_;
    delete data_;
    sessions_ = nullptr;
    model_ = nullptr;
    standardizer_ = nullptr;
    data_ = nullptr;
  }

  static std::unique_ptr<ModelPool> MakeRegistry() {
    auto pool = std::make_unique<ModelPool>(data_->meta, standardizer_);
    pool->Register("aw-moe", model_);
    return pool;
  }

  static RankRequest RequestFor(size_t s) {
    const auto& session = (*sessions_)[s % sessions_->size()];
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    return request;
  }

  static int64_t ItemsOf(size_t s) {
    return static_cast<int64_t>((*sessions_)[s % sessions_->size()].size());
  }

  /// The autograd reference scores of session `s` under §III-F gate
  /// sharing: one gate row from a 1-row probe, the Var-graph forward
  /// with that gate under NoGradGuard, then Sigmoid.
  static std::vector<double> ReferenceScores(size_t s) {
    const auto& session = (*sessions_)[s];
    NoGradGuard guard;
    Batch batch = CollateBatch(session, data_->meta, standardizer_);
    Batch probe = CollateBatch({session[0]}, data_->meta, standardizer_);
    const Matrix gate = model_->GateRepresentation(probe).value();
    const Matrix probs =
        Sigmoid(model_->Forward(batch, &gate).logits.value());
    std::vector<double> scores(static_cast<size_t>(probs.rows()));
    for (int64_t i = 0; i < probs.rows(); ++i) {
      scores[static_cast<size_t>(i)] = probs(i, 0);
    }
    return scores;
  }

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* model_;
  static std::vector<std::vector<const Example*>>* sessions_;
};

JdDataset* AsyncServingTest::data_ = nullptr;
Standardizer* AsyncServingTest::standardizer_ = nullptr;
AwMoeRanker* AsyncServingTest::model_ = nullptr;
std::vector<std::vector<const Example*>>* AsyncServingTest::sessions_ =
    nullptr;

// ---------------------------------------------------------------------
// Bitwise equivalence to the autograd reference under contention.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, ConcurrentSubmitsMatchLegacyServiceBitwise) {
  // Expected scores from the synchronous Var-graph reference.
  std::vector<std::vector<double>> expected(sessions_->size());
  for (size_t s = 0; s < sessions_->size(); ++s) {
    expected[s] = ReferenceScores(s);
  }

  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);

  // N threads x M submits each; every thread walks the whole session
  // pool at a different stride, so the queue coalesces requests from
  // different threads and repeats sessions (exercising the gate LRU).
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
        futures.push_back(engine.Submit(RequestFor(t + m)));
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
  EXPECT_EQ(engine.stats().requests(),
            static_cast<int64_t>(kThreads * kSubmits));
  EXPECT_EQ(engine.stats().Snapshot().queued_requests,
            static_cast<int64_t>(kThreads * kSubmits));
}

// ---------------------------------------------------------------------
// Coalescing: the acceptance criterion. Two single-session requests
// submitted by two threads while the flush lane is busy must be scored
// by ONE forward pass.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, SubmitCoalescesConcurrentRequestsIntoOneBatch) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  // The blocker parks the one flush lane on a held lane lock, so both
  // requests below stay queued and the lane's next pop takes them
  // together.
  LaneHold hold(registry, "aw-moe");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(2));

  std::promise<std::future<RankResponse>> slot_a, slot_b;
  std::thread thread_a(
      [&] { slot_a.set_value(engine.Submit(RequestFor(0))); });
  std::thread thread_b(
      [&] { slot_b.set_value(engine.Submit(RequestFor(1))); });
  std::future<RankResponse> future_a = slot_a.get_future().get();
  std::future<RankResponse> future_b = slot_b.get_future().get();
  thread_a.join();
  thread_b.join();
  EXPECT_EQ(engine.pending_async_requests(), 2);
  hold.Release();
  RankResponse response_a = future_a.get();
  RankResponse response_b = future_b.get();
  ASSERT_TRUE(blocker.get().status.ok());

  // Two forward passes: the blocker's, then one that carried both
  // requests. The batch-occupancy counters prove the cross-session
  // amortisation actually happened.
  EXPECT_EQ(engine.stats().Snapshot().batches, 2);
  EXPECT_EQ(engine.stats().Snapshot().max_batch_requests, 2);
  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_DOUBLE_EQ(snap.mean_batch_requests, 1.5);
  EXPECT_DOUBLE_EQ(snap.mean_batch_items,
                   static_cast<double>(ItemsOf(0) + ItemsOf(1) + ItemsOf(2)) /
                       2.0);

  // And the coalesced scores are bitwise what a synchronous engine
  // computes for each session alone.
  auto reference_registry_owner = MakeRegistry();
  ModelPool& reference_registry = *reference_registry_owner;
  ServingEngine reference(&reference_registry);
  for (const auto& [response, index] :
       {std::pair{&response_a, size_t{0}}, std::pair{&response_b, size_t{1}}}) {
    ASSERT_TRUE(response->status.ok()) << response->status;
    RankResponse want = reference.Rank(RequestFor(index));
    ASSERT_EQ(response->scores.size(), want.scores.size());
    for (size_t i = 0; i < want.scores.size(); ++i) {
      EXPECT_EQ(response->scores[i], want.scores[i]) << "item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Flush policy: work-conserving. A free lane takes what is queued at
// once; only requests that arrive while the lane is busy coalesce.
// ---------------------------------------------------------------------

// A lone request to an idle engine is scored at once, however far the
// candidate cap: max_queue_delay_ms is ignored, and there is no timer
// to wait for.
TEST_F(AsyncServingTest, LoneSubmitToIdleEngineFlushesAtOnce) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_queue_delay_ms = 10000.0;
  options.max_batch_candidates = 1 << 30;  // Cap can never trigger.
  ServingEngine engine(&registry, options);

  std::future<RankResponse> future = engine.Submit(RequestFor(0));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  RankResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_GE(response.latency_ms, response.queue_ms);

  EXPECT_EQ(engine.stats().Snapshot().batches, 1);
  EXPECT_EQ(engine.stats().Snapshot().max_batch_requests, 1);
  EXPECT_EQ(engine.stats().Snapshot().queued_requests, 1);

  auto reference_registry_owner = MakeRegistry();
  ModelPool& reference_registry = *reference_registry_owner;
  ServingEngine reference(&reference_registry);
  RankResponse want = reference.Rank(RequestFor(0));
  ASSERT_EQ(response.scores.size(), want.scores.size());
  for (size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(response.scores[i], want.scores[i]) << "item " << i;
  }
}

// Requests queued behind a busy lane coalesce into the lane's next pop,
// whole requests up to the candidate cap; the rest wait for the pop
// after it.
TEST_F(AsyncServingTest, RequestsQueuedBehindBusyLaneCoalesceUpToTheCap) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_batch_candidates = ItemsOf(1) + ItemsOf(2);
  ServingEngine engine(&registry, options);
  LaneHold hold(registry, "aw-moe");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(0));
  std::future<RankResponse> first = engine.Submit(RequestFor(1));
  std::future<RankResponse> second = engine.Submit(RequestFor(2));
  std::future<RankResponse> third = engine.Submit(RequestFor(3));
  EXPECT_EQ(engine.pending_async_requests(), 3);
  hold.Release();
  for (std::future<RankResponse>* future :
       {&blocker, &first, &second, &third}) {
    const RankResponse response = future->get();
    EXPECT_TRUE(response.status.ok()) << response.status;
  }
  // The blocker alone, then the first two together, then the third.
  EXPECT_EQ(engine.stats().Snapshot().batches, 3);
  EXPECT_EQ(engine.stats().Snapshot().max_batch_requests, 2);
}

// Among route keys with queued requests, the one whose front request is
// oldest flushes first, so one busy route cannot starve another.
TEST_F(AsyncServingTest, OlderFrontFlushesFirstAcrossRouteKeys) {
  std::unique_ptr<Ranker> twin = model_->Clone();
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("first", model_);
  pool.Register("second", twin.get());
  ServingEngine engine(&pool);  // One pool replica: one flush lane.
  LaneHold hold_first(pool, "first");
  LaneHold hold_second(pool, "second");
  auto routed = [](size_t s, const char* model) {
    RankRequest request = RequestFor(s);
    request.model = model;
    return request;
  };
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold_first, routed(0, "first"));
  // Queued behind the busy lane: "second" first, so its front is older.
  std::future<RankResponse> older = engine.Submit(routed(1, "second"));
  std::future<RankResponse> newer = engine.Submit(routed(2, "first"));
  ASSERT_EQ(engine.pending_async_requests(), 2);

  // Free "first" only. The lane finishes the blocker, then pops the
  // older front, "second", and parks on its held lane while "first"'s
  // request stays queued. Had it popped "first", that request would
  // have been served before "second" could lease a lane.
  hold_first.Release();
  ASSERT_TRUE(hold_second.AwaitLeases(1));
  EXPECT_EQ(engine.pending_async_requests(), 1);
  EXPECT_EQ(newer.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_TRUE(blocker.get().status.ok());

  hold_second.Release();
  const RankResponse older_response = older.get();
  const RankResponse newer_response = newer.get();
  ASSERT_TRUE(older_response.status.ok()) << older_response.status;
  ASSERT_TRUE(newer_response.status.ok()) << newer_response.status;
  EXPECT_EQ(older_response.model, "second");
  EXPECT_EQ(newer_response.model, "first");
}

// ---------------------------------------------------------------------
// Backpressure: a full queue fails fast instead of queueing unbounded.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, QueueFullBackpressureFailsFast) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_pending_requests = 1;
  ServingEngine engine(&registry, options);
  // The blocker keeps the flush lane busy, so the next request stays
  // queued and fills the queue.
  LaneHold hold(registry, "aw-moe");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(2));

  std::future<RankResponse> queued = engine.Submit(RequestFor(0));
  std::future<RankResponse> rejected = engine.Submit(RequestFor(1));

  // The rejection is immediate — no flush involved.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  RankResponse rejected_response = rejected.get();
  EXPECT_EQ(rejected_response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected_response.scores.empty());
  EXPECT_EQ(rejected_response.session_id, RequestFor(1).session_id);

  // Draining still scores the accepted request.
  hold.Release();
  engine.Stop(/*drain=*/true);
  EXPECT_TRUE(blocker.get().status.ok());
  RankResponse queued_response = queued.get();
  ASSERT_TRUE(queued_response.status.ok()) << queued_response.status;
  auto reference_registry_owner = MakeRegistry();
  ModelPool& reference_registry = *reference_registry_owner;
  ServingEngine reference(&reference_registry);
  RankResponse want = reference.Rank(RequestFor(0));
  ASSERT_EQ(queued_response.scores.size(), want.scores.size());
  for (size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(queued_response.scores[i], want.scores[i]);
  }
}

TEST_F(AsyncServingTest, EmptyCandidateListFailsInvalidArgument) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  RankRequest empty;
  empty.session_id = 1234;
  RankResponse response = engine.Submit(std::move(empty)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(response.scores.empty());
  EXPECT_EQ(response.session_id, 1234);
}

// Malformed candidates fail their own future with kInvalidArgument
// without queueing; requests submitted around them are served.
TEST_F(AsyncServingTest, MalformedItemsFailInvalidArgument) {
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  for (const MalformedItemCase& c : MalformedItemCases()) {
    const std::vector<Example> bad =
        CorruptedSession((*sessions_)[1], c, data_->meta);
    RankRequest malformed;
    malformed.session_id = 4243;
    malformed.items = ItemPointers(bad);
    std::future<RankResponse> before = engine.Submit(RequestFor(0));
    std::future<RankResponse> rejected = engine.Submit(malformed);
    std::future<RankResponse> after = engine.Submit(RequestFor(2));
    ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << c.name;
    const RankResponse response = rejected.get();
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
        << c.name;
    EXPECT_TRUE(response.scores.empty()) << c.name;
    EXPECT_EQ(response.session_id, 4243) << c.name;
    const RankResponse served_before = before.get();
    const RankResponse served_after = after.get();
    ASSERT_TRUE(served_before.status.ok()) << c.name;
    ASSERT_TRUE(served_after.status.ok()) << c.name;
    EXPECT_EQ(static_cast<int64_t>(served_before.scores.size()), ItemsOf(0));
    EXPECT_EQ(static_cast<int64_t>(served_after.scores.size()), ItemsOf(2));
  }
}

TEST_F(AsyncServingTest, UnknownModelFailsNotFoundWithoutQueueing) {
  auto registry_owner = MakeRegistry();
  ServingEngine engine(registry_owner.get());
  RankRequest unknown = RequestFor(0);
  unknown.model = "no-such-model";
  std::future<RankResponse> rejected = engine.Submit(unknown);
  // Answered at submit time: the request never occupies queue space.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  RankResponse response = rejected.get();
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(response.scores.empty());
  EXPECT_EQ(response.session_id, unknown.session_id);
  EXPECT_EQ(response.model, "no-such-model");
  EXPECT_EQ(engine.pending_async_requests(), 0);

  // The engine keeps serving known routes.
  RankResponse served = engine.Submit(RequestFor(1)).get();
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(static_cast<int64_t>(served.scores.size()), ItemsOf(1));

  // An empty name on a pool with no default model is not found either.
  ModelPool empty(data_->meta, standardizer_);
  ServingEngine empty_engine(&empty);
  EXPECT_EQ(empty_engine.Submit(RequestFor(2)).get().status.code(),
            StatusCode::kNotFound);
}

// A non-finite score resolves the future with kInternal: no scores, no
// cache fill (the repeat fails again), and a healthy model sharing the
// pool keeps serving.
TEST_F(AsyncServingTest, NonFiniteScoresFailInternal) {
  std::unique_ptr<Ranker> broken = model_->Clone();
  // The last parameter is the gate bias: a NaN there reaches every row.
  broken->Parameters().back().mutable_value()(0, 0) =
      std::numeric_limits<float>::quiet_NaN();
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("healthy", model_);
  pool.Register("broken", broken.get());
  ServingEngine engine(&pool);
  RankRequest bad = RequestFor(0);
  bad.model = "broken";
  RankRequest good = RequestFor(1);
  good.model = "healthy";
  for (int round = 0; round < 2; ++round) {
    std::future<RankResponse> failed = engine.Submit(bad);
    std::future<RankResponse> served = engine.Submit(good);
    const RankResponse failure = failed.get();
    EXPECT_EQ(failure.status.code(), StatusCode::kInternal)
        << "round " << round;
    EXPECT_TRUE(failure.scores.empty());
    EXPECT_FALSE(failure.score_cache_hit);
    EXPECT_EQ(failure.session_id, bad.session_id);
    const RankResponse response = served.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_EQ(static_cast<int64_t>(response.scores.size()), ItemsOf(1));
    for (double score : response.scores) EXPECT_TRUE(std::isfinite(score));
    EXPECT_EQ(response.score_cache_hit, round == 1);
  }
  EXPECT_EQ(engine.pending_async_requests(), 0);
}

/// An AW-MoE whose Score throws when its batch holds the marked
/// session: a stand-in for any fault a forward may raise.
class ThrowingRanker : public AwMoeRanker {
 public:
  ThrowingRanker(const DatasetMeta& meta, int64_t marked_session, Rng* rng)
      : AwMoeRanker(meta, SmallAwMoeConfig(), rng), marked_(marked_session) {}

  void Score(const ScoreCall& call) override {
    const std::vector<int64_t>& ids = call.batch.session_ids;
    if (std::find(ids.begin(), ids.end(), marked_) != ids.end()) {
      throw std::runtime_error("marked session");
    }
    AwMoeRanker::Score(call);
  }

 private:
  int64_t marked_;
};

// A forward that throws fails every request of its batch with kInternal
// and one version-health error, and the flush lane keeps serving: the
// next Submit on the same engine is scored, and no snapshot leaks.
TEST_F(AsyncServingTest, ThrowingForwardFailsItsBatchAndKeepsTheLane) {
  Rng rng(17);
  ThrowingRanker model(data_->meta, RequestFor(0).session_id, &rng);
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("throwing", &model);
  ServingEngine engine(&pool);
  // Queue the marked request and a healthy one behind a busy lane, so
  // the lane's next pop puts both into the throwing batch.
  LaneHold hold(pool, "throwing");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(2));
  std::future<RankResponse> marked = engine.Submit(RequestFor(0));
  std::future<RankResponse> batched = engine.Submit(RequestFor(1));
  ASSERT_EQ(engine.pending_async_requests(), 2);
  hold.Release();
  EXPECT_TRUE(blocker.get().status.ok());
  for (std::future<RankResponse>* future : {&marked, &batched}) {
    const RankResponse failure = future->get();
    EXPECT_EQ(failure.status.code(), StatusCode::kInternal)
        << failure.status;
    EXPECT_TRUE(failure.scores.empty());
    EXPECT_EQ(failure.model, "throwing");
  }
  EXPECT_EQ(engine.stats().VersionHealth("throwing", 1).errors, 1);

  const RankResponse served = engine.Submit(RequestFor(3)).get();
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(static_cast<int64_t>(served.scores.size()), ItemsOf(3));
  EXPECT_EQ(pool.live_snapshots(), 1);
}

// The same fault through RankBatch's worker pool: the throwing route's
// micro-batch fails with kInternal on whichever thread ran it, the
// healthy route next to it is served, and the engine keeps serving.
TEST_F(AsyncServingTest, RankBatchThrowingForwardFailsItsRouteOnly) {
  Rng rng(17);
  ThrowingRanker throwing(data_->meta, RequestFor(0).session_id, &rng);
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("throwing", &throwing);
  pool.Register("aw-moe", model_);
  ServingEngineOptions options;
  options.num_threads = 4;
  ServingEngine engine(&pool, options);

  const auto request = [](size_t s, const char* model) {
    RankRequest r = RequestFor(s);
    r.model = model;
    return r;
  };
  // One job per route: the caller or a worker may run the throwing
  // one, so several rounds give both a chance.
  for (int round = 0; round < 4; ++round) {
    const std::vector<RankResponse> responses = engine.RankBatch(
        {request(0, "throwing"), request(1, "throwing"),
         request(2, "aw-moe"), request(3, "aw-moe")});
    ASSERT_EQ(responses.size(), 4u);
    for (size_t i : {0, 1}) {
      EXPECT_EQ(responses[i].status.code(), StatusCode::kInternal)
          << responses[i].status;
      EXPECT_TRUE(responses[i].scores.empty());
      EXPECT_EQ(responses[i].model, "throwing");
      EXPECT_EQ(responses[i].session_id, RequestFor(i).session_id);
    }
    for (size_t i : {2, 3}) {
      ASSERT_TRUE(responses[i].status.ok()) << responses[i].status;
      EXPECT_EQ(static_cast<int64_t>(responses[i].scores.size()),
                ItemsOf(i));
    }
  }
  EXPECT_EQ(engine.stats().VersionHealth("throwing", 1).errors, 4);

  // Without the marked session the throwing model serves as well.
  const std::vector<RankResponse> served =
      engine.RankBatch({request(1, "throwing"), request(4, "aw-moe")});
  for (size_t i = 0; i < served.size(); ++i) {
    ASSERT_TRUE(served[i].status.ok()) << i << ": " << served[i].status;
  }
  EXPECT_EQ(static_cast<int64_t>(served[0].scores.size()), ItemsOf(1));
  EXPECT_EQ(pool.live_snapshots(), 2);
}

// ---------------------------------------------------------------------
// Shutdown and drain semantics: futures always resolve, never leak.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, StopWithDrainScoresPendingFutures) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  LaneHold hold(registry, "aw-moe");

  constexpr size_t kPending = 6;
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(kPending));
  std::vector<std::future<RankResponse>> futures;
  for (size_t s = 0; s < kPending; ++s) {
    futures.push_back(engine.Submit(RequestFor(s)));
  }
  ASSERT_EQ(engine.pending_async_requests(), static_cast<int64_t>(kPending));

  // Stop on a second thread: it stops the queue, then waits for the
  // busy lane. A probe Submit that reads kUnavailable shows the queue
  // has stopped with the held requests still queued; only then is the
  // lane released, so it is Stop's drain that scores them. Probes
  // accepted before that are queued too and must be drained alike.
  std::thread stopper([&engine] { engine.Stop(/*drain=*/true); });
  std::vector<size_t> sessions(kPending);
  std::iota(sessions.begin(), sessions.end(), size_t{0});
  for (;;) {
    std::future<RankResponse> probe = engine.Submit(RequestFor(0));
    if (probe.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_EQ(probe.get().status.code(), StatusCode::kUnavailable);
      break;
    }
    futures.push_back(std::move(probe));
    sessions.push_back(0);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  hold.Release();
  stopper.join();
  EXPECT_TRUE(blocker.get().status.ok());

  auto reference_registry_owner = MakeRegistry();
  ModelPool& reference_registry = *reference_registry_owner;
  ServingEngine reference(&reference_registry);
  for (size_t f = 0; f < futures.size(); ++f) {
    RankResponse response = futures[f].get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    RankResponse want = reference.Rank(RequestFor(sessions[f]));
    ASSERT_EQ(response.scores.size(), want.scores.size());
    for (size_t i = 0; i < want.scores.size(); ++i) {
      EXPECT_EQ(response.scores[i], want.scores[i]);
    }
  }

  // Stop is idempotent, and the engine rejects post-stop submits while
  // the synchronous path keeps working.
  engine.Stop(/*drain=*/true);
  engine.Stop(/*drain=*/false);
  RankResponse late = engine.Submit(RequestFor(0)).get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.Rank(RequestFor(0)).scores.size(),
            static_cast<size_t>(ItemsOf(0)));
}

TEST_F(AsyncServingTest, StopWithoutDrainFailsPendingWithDistinctStatus) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngine engine(&registry);
  LaneHold hold(registry, "aw-moe");
  std::future<RankResponse> blocker =
      SubmitBlocker(engine, hold, RequestFor(4));

  std::vector<std::future<RankResponse>> futures;
  for (size_t s = 0; s < 4; ++s) {
    futures.push_back(engine.Submit(RequestFor(s)));
  }
  // Stop on a second thread: it fails the queued requests at once, then
  // waits for the busy lane, which is released only after they read
  // kUnavailable.
  std::thread stopper([&engine] { engine.Stop(/*drain=*/false); });
  for (auto& future : futures) {
    RankResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(response.scores.empty());
    // Even failure responses carry the resolved route, not the
    // caller's (empty, default-routed) request.model.
    EXPECT_EQ(response.model, "aw-moe");
  }
  hold.Release();
  stopper.join();
  // The blocker's batch was in flight before Stop: it is still scored.
  EXPECT_TRUE(blocker.get().status.ok());
}

TEST_F(AsyncServingTest, DestructorDrainsPendingFutures) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  auto engine = std::make_unique<ServingEngine>(&registry);
  LaneHold hold(registry, "aw-moe");
  std::vector<std::future<RankResponse>> futures;
  futures.push_back(SubmitBlocker(*engine, hold, RequestFor(3)));
  for (size_t s = 0; s < 3; ++s) {
    futures.push_back(engine->Submit(RequestFor(s)));
  }
  // ~ServingEngine waits for the busy lane, so it runs on a second
  // thread while this one releases the lane. Whether the destructor's
  // drain or the freed lane pops the held requests, every future must
  // be ready once the destructor returns.
  std::thread destroyer([&engine] { engine.reset(); });
  hold.Release();
  destroyer.join();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    RankResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status;
    EXPECT_FALSE(response.scores.empty());
  }
}

TEST_F(AsyncServingTest, StopNeverCalledSubmitNeverCalledIsSafe) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  {
    ServingEngine engine(&registry);
    // No Submit: the destructor must not spin up or wait on anything.
  }
  ServingEngine engine(&registry);
  engine.Stop(/*drain=*/true);  // Stop before any Submit is a no-op...
  RankResponse late = engine.Submit(RequestFor(0)).get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);  // ...and sticks.
}

// ---------------------------------------------------------------------
// Stats exactness under contention: recording happens from RankBatch
// worker threads and the flusher concurrently; counts must be exact.
// ---------------------------------------------------------------------

TEST(ServingStatsConcurrencyTest, CountsAndHistogramExactUnderContention) {
  ServingStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      // Micro-batches of two queued 3-item requests; every fourth
      // request hits the gate cache.
      for (int i = 0; i < kPerThread; i += 2) {
        std::vector<RequestSample> samples;
        for (const int r : {i, i + 1}) {
          samples.push_back({.items = 3,
                             .latency_ms = 1.0 + (r % 7),
                             .queue_ms = 0.25,
                             .gate_lookup = r % 4 == 0 ? 1 : 0});
        }
        stats.RecordMicroBatch(/*batch_items=*/6, samples);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr int64_t kTotal = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(stats.requests(), kTotal);
  ServingStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.items, 3 * kTotal);
  EXPECT_EQ(snap.queued_requests, kTotal);
  EXPECT_EQ(snap.batches, kTotal / 2);
  EXPECT_EQ(snap.max_batch_requests, 2);
  EXPECT_EQ(snap.gate_cache_hits, kTotal / 4);
  EXPECT_EQ(snap.gate_cache_misses, kTotal - kTotal / 4);
  EXPECT_DOUBLE_EQ(snap.mean_batch_requests, 2.0);
  EXPECT_DOUBLE_EQ(snap.mean_batch_items, 6.0);
  EXPECT_DOUBLE_EQ(snap.queue_mean_ms, 0.25);
  EXPECT_DOUBLE_EQ(snap.queue_max_ms, 0.25);
  // Every latency sample lands in the histogram — none lost or
  // duplicated under contention — spread over the seven latencies
  // 1..7 ms exactly as recorded.
  EXPECT_EQ(snap.latency.count(), kTotal);
  for (int ms = 1; ms <= 7; ++ms) {
    const int64_t want = kThreads * ((kPerThread - (ms - 1) + 6) / 7);
    EXPECT_EQ(snap.latency.bucket_count(Histogram::BucketOf(ms)), want)
        << ms << " ms";
  }
  EXPECT_DOUBLE_EQ(stats.LatencyPercentileMs(50.0), 4.0);
}

TEST_F(AsyncServingTest, EngineStatsExactAcrossSubmittingThreads) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  // Indices wrap around the session list, so repeats exist; with the
  // score cache on they would (correctly) skip the forward pass and the
  // exact batch-occupancy identity below would not hold.
  options.score_cache_capacity = 0;
  ServingEngine engine(&registry, options);

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 25;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &engine] {
      std::vector<std::future<RankResponse>> futures;
      for (size_t m = 0; m < kPerThread; ++m) {
        futures.push_back(engine.Submit(RequestFor(t * kPerThread + m)));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (std::thread& thread : threads) thread.join();

  int64_t want_items = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t m = 0; m < kPerThread; ++m) {
      want_items += ItemsOf(t * kPerThread + m);
    }
  }
  constexpr int64_t kTotal = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(engine.stats().requests(), kTotal);
  EXPECT_EQ(engine.stats().Snapshot().items, want_items);
  EXPECT_EQ(engine.stats().Snapshot().queued_requests, kTotal);
  // Every request went through some batch; occupancy accounting must
  // add up exactly.
  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_GE(snap.batches, 1);
  EXPECT_EQ(std::llround(snap.mean_batch_requests *
                         static_cast<double>(snap.batches)),
            kTotal);
  EXPECT_EQ(std::llround(snap.mean_batch_items *
                         static_cast<double>(snap.batches)),
            want_items);
}

}  // namespace
}  // namespace awmoe
