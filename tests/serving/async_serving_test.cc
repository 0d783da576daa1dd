// Concurrency suite for the async Submit() -> future serving front.
// Worker threads only collect results; all gtest assertions run on the
// main thread after joining (gtest assertions are not thread-safe).
// The whole binary runs under a CTest TIMEOUT (tests/CMakeLists.txt),
// so a deadlocked drain/shutdown path fails instead of hanging CI.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
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
    const Matrix probs = Sigmoid(
        model_->ForwardLogitsWithGate(batch, model_->GateRepresentation(probe))
            .value());
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
  ServingEngineOptions options;
  options.max_queue_delay_ms = 1.0;
  ServingEngine engine(&registry, options);

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
  EXPECT_EQ(engine.stats().queued_requests(),
            static_cast<int64_t>(kThreads * kSubmits));
}

// ---------------------------------------------------------------------
// Coalescing: the acceptance criterion. Two single-session requests
// submitted by two threads must be scored by ONE forward pass.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, SubmitCoalescesConcurrentRequestsIntoOneBatch) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  // The delay bound is far away, so the only flush trigger is the
  // candidate cap — sized to exactly both sessions, making the
  // coalescing deterministic: the first submit waits, the second
  // completes the batch.
  options.max_queue_delay_ms = 2000.0;
  options.max_batch_candidates = ItemsOf(0) + ItemsOf(1);
  ServingEngine engine(&registry, options);

  std::promise<std::future<RankResponse>> slot_a, slot_b;
  std::thread thread_a(
      [&] { slot_a.set_value(engine.Submit(RequestFor(0))); });
  std::thread thread_b(
      [&] { slot_b.set_value(engine.Submit(RequestFor(1))); });
  std::future<RankResponse> future_a = slot_a.get_future().get();
  std::future<RankResponse> future_b = slot_b.get_future().get();
  thread_a.join();
  thread_b.join();
  RankResponse response_a = future_a.get();
  RankResponse response_b = future_b.get();

  // One forward pass carried both requests: the batch-occupancy
  // counters prove the cross-session amortisation actually happened.
  EXPECT_EQ(engine.stats().batches(), 1);
  EXPECT_EQ(engine.stats().max_batch_requests(), 2);
  ServingStatsSnapshot snap = engine.Stats();
  EXPECT_DOUBLE_EQ(snap.mean_batch_requests, 2.0);
  EXPECT_EQ(snap.mean_batch_items,
            static_cast<double>(ItemsOf(0) + ItemsOf(1)));

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
// Time-bounded flush: a lone request must not wait for company forever.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, LoneSubmitFlushesOnTimeout) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_queue_delay_ms = 5.0;
  options.max_batch_candidates = 1 << 30;  // Cap can never trigger.
  ServingEngine engine(&registry, options);

  RankResponse response = engine.Submit(RequestFor(0)).get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_GT(response.queue_ms, 0.0);
  EXPECT_GE(response.latency_ms, response.queue_ms);

  EXPECT_EQ(engine.stats().batches(), 1);
  EXPECT_EQ(engine.stats().max_batch_requests(), 1);
  EXPECT_EQ(engine.stats().queued_requests(), 1);
  EXPECT_GT(engine.Stats().queue_mean_ms, 0.0);

  auto reference_registry_owner = MakeRegistry();
  ModelPool& reference_registry = *reference_registry_owner;
  ServingEngine reference(&reference_registry);
  RankResponse want = reference.Rank(RequestFor(0));
  ASSERT_EQ(response.scores.size(), want.scores.size());
  for (size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(response.scores[i], want.scores[i]) << "item " << i;
  }
}

// ---------------------------------------------------------------------
// Backpressure: a full queue fails fast instead of queueing unbounded.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, QueueFullBackpressureFailsFast) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_queue_delay_ms = 10000.0;     // Neither bound can trigger,
  options.max_batch_candidates = 1 << 30;   // so the first request stays
  options.max_pending_requests = 1;         // queued during the test.
  ServingEngine engine(&registry, options);

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
  engine.Stop(/*drain=*/true);
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

// ---------------------------------------------------------------------
// Shutdown and drain semantics: futures always resolve, never leak.
// ---------------------------------------------------------------------

TEST_F(AsyncServingTest, StopWithDrainScoresPendingFutures) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_queue_delay_ms = 10000.0;
  options.max_batch_candidates = 1 << 30;
  ServingEngine engine(&registry, options);

  constexpr size_t kPending = 6;
  std::vector<std::future<RankResponse>> futures;
  for (size_t s = 0; s < kPending; ++s) {
    futures.push_back(engine.Submit(RequestFor(s)));
  }
  engine.Stop(/*drain=*/true);

  auto reference_registry_owner = MakeRegistry();
  ModelPool& reference_registry = *reference_registry_owner;
  ServingEngine reference(&reference_registry);
  for (size_t s = 0; s < kPending; ++s) {
    RankResponse response = futures[s].get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    RankResponse want = reference.Rank(RequestFor(s));
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
  ServingEngineOptions options;
  options.max_queue_delay_ms = 10000.0;
  options.max_batch_candidates = 1 << 30;
  ServingEngine engine(&registry, options);

  std::vector<std::future<RankResponse>> futures;
  for (size_t s = 0; s < 4; ++s) {
    futures.push_back(engine.Submit(RequestFor(s)));
  }
  engine.Stop(/*drain=*/false);
  for (auto& future : futures) {
    RankResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(response.scores.empty());
    // Even failure responses carry the resolved route, not the
    // caller's (empty, default-routed) request.model.
    EXPECT_EQ(response.model, "aw-moe");
  }
}

TEST_F(AsyncServingTest, DestructorDrainsPendingFutures) {
  std::vector<std::future<RankResponse>> futures;
  {
    auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
    ServingEngineOptions options;
    options.max_queue_delay_ms = 10000.0;
    options.max_batch_candidates = 1 << 30;
    ServingEngine engine(&registry, options);
    for (size_t s = 0; s < 3; ++s) {
      futures.push_back(engine.Submit(RequestFor(s)));
    }
  }  // ~ServingEngine drains: every future is ready once it returns.
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

TEST(ServingStatsConcurrencyTest, CountsAndReservoirExactUnderContention) {
  ServingStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;  // 8x10k > kMaxSamples: saturates the reservoir.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordRequest(/*items=*/3, /*latency_ms=*/1.0 + (i % 7));
        stats.RecordQueueDelay(0.25);
        if (i % 2 == 0) stats.RecordBatch(/*batch_requests=*/2,
                                          /*batch_items=*/6);
        stats.RecordGateLookup(i % 4 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr int64_t kTotal = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(stats.requests(), kTotal);
  EXPECT_EQ(stats.items(), 3 * kTotal);
  EXPECT_EQ(stats.queued_requests(), kTotal);
  EXPECT_EQ(stats.batches(), kTotal / 2);
  EXPECT_EQ(stats.max_batch_requests(), 2);
  EXPECT_EQ(stats.gate_cache_hits(), kTotal / 4);
  EXPECT_EQ(stats.gate_cache_misses(), kTotal - kTotal / 4);
  ServingStatsSnapshot snap = stats.Snapshot();
  EXPECT_DOUBLE_EQ(snap.mean_batch_requests, 2.0);
  EXPECT_DOUBLE_EQ(snap.mean_batch_items, 6.0);
  EXPECT_DOUBLE_EQ(snap.queue_mean_ms, 0.25);
  EXPECT_DOUBLE_EQ(snap.queue_max_ms, 0.25);
  // The reservoir saturates at exactly kMaxSamples entries — no lost or
  // duplicated slots under contention.
  EXPECT_GT(kTotal, ServingStats::kMaxSamples);
  EXPECT_GT(stats.LatencyPercentileMs(50.0), 0.0);
}

TEST_F(AsyncServingTest, EngineStatsExactAcrossSubmittingThreads) {
  auto registry_owner = MakeRegistry();
  ModelPool& registry = *registry_owner;
  ServingEngineOptions options;
  options.max_queue_delay_ms = 0.5;
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
  EXPECT_EQ(engine.stats().items(), want_items);
  EXPECT_EQ(engine.stats().queued_requests(), kTotal);
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
