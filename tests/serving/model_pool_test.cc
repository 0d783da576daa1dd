// ModelPool suite: snapshot versioning, replica lanes, lease-based
// retirement, and the hot-swap storm. Worker threads only collect
// results; all gtest assertions run on the main thread after joining
// (gtest assertions are not thread-safe). Runs in the serving_ CTest
// group, so the TSan CI job covers the storm and the ASan job covers
// snapshot lifetime (use-after-free on retired replicas).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aw_moe.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "models/category_moe.h"
#include "models/dnn_ranker.h"
#include "models/listwise/listwise_reranker.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"

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

class ModelPoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    JdConfig jd;
    jd.num_users = 150;
    jd.num_items = 120;
    jd.num_categories = 8;
    jd.brands_per_category = 4;
    jd.num_shops = 15;
    jd.train_sessions = 40;
    jd.test_sessions = 30;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 4242;
    data_ = new JdDataset(JdSyntheticGenerator(jd).Generate());
    standardizer_ = new Standardizer();
    standardizer_->Fit(data_->train);
    Rng rng_a(31);
    model_a_ = new AwMoeRanker(data_->meta, SmallAwMoeConfig(), &rng_a);
    Rng rng_b(77);  // Different init: distinguishable scores per version.
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
  /// engine over `model` — the bitwise anchor every replica/version
  /// result is compared against.
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

  static JdDataset* data_;
  static Standardizer* standardizer_;
  static AwMoeRanker* model_a_;
  static AwMoeRanker* model_b_;
  static std::vector<std::vector<const Example*>>* sessions_;
};

JdDataset* ModelPoolTest::data_ = nullptr;
Standardizer* ModelPoolTest::standardizer_ = nullptr;
AwMoeRanker* ModelPoolTest::model_a_ = nullptr;
AwMoeRanker* ModelPoolTest::model_b_ = nullptr;
std::vector<std::vector<const Example*>>* ModelPoolTest::sessions_ = nullptr;

// ---------------------------------------------------------------------
// Snapshot and replica basics.
// ---------------------------------------------------------------------

TEST_F(ModelPoolTest, RegisterPublishesVersionOneWithReplicaLanes) {
  ModelPoolOptions options;
  options.replicas = 3;
  ModelPool pool(data_->meta, standardizer_, options);
  pool.Register("aw-moe", model_a_);

  auto snapshot = pool.CurrentSnapshot("aw-moe");
  EXPECT_EQ(snapshot->version(), 1);
  EXPECT_EQ(snapshot->num_replicas(), 3);
  EXPECT_TRUE(snapshot->traits().share_gate);
  EXPECT_EQ(snapshot->primary(), model_a_);
  EXPECT_EQ(pool.swap_count(), 0);
  EXPECT_EQ(pool.live_snapshots(), 1);
  // Lanes 1..N-1 are deep clones, not aliases of the registered model.
  EXPECT_NE(snapshot->lane(1).model, model_a_);
  EXPECT_NE(snapshot->lane(2).model, model_a_);
  EXPECT_NE(snapshot->lane(1).model, snapshot->lane(2).model);
}

TEST_F(ModelPoolTest, SnapshotExposesGateWidthAndWarmsSessionGates) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  auto snapshot = pool.CurrentSnapshot("aw-moe");
  EXPECT_TRUE(snapshot->traits().share_gate);
  EXPECT_EQ(snapshot->traits().gate_width,
            SmallAwMoeConfig().dims.num_experts);
  EXPECT_EQ(snapshot->gate_cache().size(), 0);

  // Warm-up fills the snapshot's LRU with one row per session (empty
  // resolved name routes to the default model, like serving requests).
  const int64_t warmed =
      pool.WarmSessionGates("", RolloutArm::kStable, *sessions_, 4096);
  EXPECT_EQ(warmed, static_cast<int64_t>(sessions_->size()));
  EXPECT_EQ(snapshot->gate_cache().size(), warmed);

  // Capacity bounds eviction exactly like serving-time inserts; 0
  // disables warming outright.
  ModelPool bounded(data_->meta, standardizer_);
  bounded.Register("aw-moe", model_a_);
  bounded.WarmSessionGates("aw-moe", RolloutArm::kStable, *sessions_, 2);
  EXPECT_EQ(bounded.CurrentSnapshot("aw-moe")->gate_cache().size(), 2);
  EXPECT_EQ(
      bounded.WarmSessionGates("aw-moe", RolloutArm::kStable, *sessions_, 0),
      0);
}

TEST_F(ModelPoolTest, AcquireSpreadsLeasesAcrossLanes) {
  ModelPoolOptions options;
  options.replicas = 2;
  ModelPool pool(data_->meta, standardizer_, options);
  pool.Register("aw-moe", model_a_);

  // Held leases force the next acquire onto the other (least-loaded)
  // lane; with none held, the round-robin tie-break rotates lanes.
  SnapshotLease first = pool.Acquire("aw-moe");
  SnapshotLease second = pool.Acquire("aw-moe");
  EXPECT_NE(first.replica(), second.replica());
  EXPECT_EQ(second.active_lanes_at_acquire(), 2);

  auto snapshot = pool.CurrentSnapshot("aw-moe");
  EXPECT_EQ(snapshot->lane(0).active.load() + snapshot->lane(1).active.load(),
            2);
}

TEST_F(ModelPoolTest, ReplicatedPoolScoresBitwiseEqualToSingleReplica) {
  std::vector<std::vector<double>> want = ReferenceScores(model_a_);

  ModelPoolOptions options;
  options.replicas = 4;
  ModelPool pool(data_->meta, standardizer_, options);
  pool.Register("aw-moe", model_a_);
  ServingEngineOptions engine_options;
  engine_options.max_batch_items = 32;
  engine_options.num_threads = 4;
  ServingEngine engine(&pool, engine_options);

  auto responses = engine.RankBatch(MakeSessionRequests(*sessions_));
  ASSERT_EQ(responses.size(), want.size());
  for (size_t s = 0; s < responses.size(); ++s) {
    EXPECT_EQ(responses[s].model_version, 1);
    ASSERT_EQ(responses[s].scores.size(), want[s].size());
    for (size_t i = 0; i < want[s].size(); ++i) {
      EXPECT_EQ(responses[s].scores[i], want[s][i])
          << "session " << s << " item " << i;
    }
  }
  // Leases were taken per micro-batch and spread over >1 lane (the
  // round-robin tie-break guarantees spread even without overlap).
  ServingStatsSnapshot snap = engine.Stats();
  ASSERT_EQ(snap.versions.size(), 1u);
  EXPECT_EQ(snap.versions[0].model, "aw-moe");
  EXPECT_EQ(snap.versions[0].version, 1);
  EXPECT_EQ(snap.versions[0].leases, snap.snapshot_leases);
  ASSERT_EQ(snap.versions[0].lane_leases.size(), 4u);
  int lanes_used = 0;
  for (int64_t count : snap.versions[0].lane_leases) {
    if (count > 0) ++lanes_used;
  }
  EXPECT_GE(lanes_used, 2);
}

TEST_F(ModelPoolTest, NonCloneableModelDegradesToSingleLane) {
  /// Clone() is optional; the pool must serve models without it.
  class NonCloneable : public DnnRanker {
   public:
    using DnnRanker::DnnRanker;
    std::unique_ptr<Ranker> Clone() const override { return nullptr; }
  };
  Rng rng(9);
  ModelDims dims = SmallAwMoeConfig().dims;
  NonCloneable dnn(data_->meta, dims, &rng);
  ModelPoolOptions options;
  options.replicas = 4;
  ModelPool pool(data_->meta, standardizer_, options);
  pool.Register("dnn", &dnn);
  EXPECT_EQ(pool.CurrentSnapshot("dnn")->num_replicas(), 1);
  ServingEngine engine(&pool);
  EXPECT_EQ(engine.Rank(RequestFor(0)).scores.size(),
            (*sessions_)[0].size());
}

TEST_F(ModelPoolTest, SubclassInheritingCloneDegradesToSingleLane) {
  /// A subclass that overrides the forward but forgets Clone() would
  /// "clone" into its base class (sliced overrides) — a different
  /// model. The pool must detect the type mismatch and serve it
  /// single-lane instead of letting scores depend on lane assignment.
  class ForgotClone : public DnnRanker {
   public:
    using DnnRanker::DnnRanker;
    Var ForwardLogits(const Batch& batch) override {
      return DnnRanker::ForwardLogits(batch);  // Stand-in override.
    }
  };
  Rng rng(10);
  ModelDims dims = SmallAwMoeConfig().dims;
  ForgotClone model(data_->meta, dims, &rng);
  ASSERT_NE(model.Clone(), nullptr);  // Inherited Clone() does run...
  ModelPoolOptions options;
  options.replicas = 4;
  ModelPool pool(data_->meta, standardizer_, options);
  pool.Register("forgot-clone", &model);
  // ...but the snapshot rejects the sliced copy.
  EXPECT_EQ(pool.CurrentSnapshot("forgot-clone")->num_replicas(), 1);
}

// ---------------------------------------------------------------------
// Serving traits: each ranker's declaration and the snapshot's stamp.
// ---------------------------------------------------------------------

std::string Describe(const ServingTraits& t) {
  std::ostringstream out;
  out << "{gate_width=" << t.gate_width << " share_gate=" << t.share_gate
      << " encoding_width=" << t.encoding_width
      << " share_encoding=" << t.share_encoding
      << " max_slate_items=" << t.max_slate_items << "}";
  return out.str();
}

TEST_F(ModelPoolTest, TraitsOfEveryRankerInSearchAndRecommendationMode) {
  struct Case {
    std::string model;
    bool recommendation;
    ServingTraits declared;  // Ranker::Traits(meta).
    ServingTraits stamped;   // ModelSnapshot::traits() after publish.
  };
  // The fixture meta has max_seq_len 10; the small dims give tower width
  // h = 6 and K = 4 experts. Encoding widths: sum pooling h, attention
  // 10 * h, plus h for the query embedding in search mode.
  const std::vector<Case> cases = {
      {"DNN", false, {0, false, 12, true, 0}, {0, false, 12, true, 0}},
      {"DNN", true, {0, false, 6, true, 0}, {0, false, 6, true, 0}},
      {"DIN", false, {0, false, 66, true, 0}, {0, false, 66, true, 0}},
      {"DIN", true, {0, false, 60, true, 0}, {0, false, 60, true, 0}},
      // Category-MoE's gate reads the target category in recommendation
      // mode: it declares its width but does not share, and the stamp
      // zeroes the width.
      {"Category-MoE", false, {4, true, 0, false, 0}, {4, true, 0, false, 0}},
      {"Category-MoE", true, {4, false, 0, false, 0}, {0, false, 0, false, 0}},
      {"AW-MoE", false, {4, true, 66, true, 0}, {4, true, 66, true, 0}},
      {"AW-MoE", true, {4, false, 60, true, 0}, {0, false, 60, true, 0}},
      {"Listwise-Attn", false, {0, false, 0, false, 16},
       {0, false, 0, false, 16}},
      {"Listwise-Attn", true, {0, false, 0, false, 16},
       {0, false, 0, false, 16}},
  };
  const ModelDims dims = SmallAwMoeConfig().dims;
  ListwiseDims ldims;
  ldims.max_slate_len = 16;
  for (const Case& c : cases) {
    DatasetMeta meta = data_->meta;
    meta.recommendation_mode = c.recommendation;
    Rng rng(3);
    std::unique_ptr<Ranker> model;
    if (c.model == "DNN") {
      model = std::make_unique<DnnRanker>(meta, dims, &rng);
    } else if (c.model == "DIN") {
      model = std::make_unique<DinRanker>(meta, dims, &rng);
    } else if (c.model == "Category-MoE") {
      model = std::make_unique<CategoryMoeRanker>(meta, dims, &rng);
    } else if (c.model == "AW-MoE") {
      model = std::make_unique<AwMoeRanker>(meta, SmallAwMoeConfig(), &rng);
    } else {
      model = std::make_unique<ListwiseReranker>(meta, dims, ldims, &rng);
    }
    ASSERT_EQ(model->name(), c.model);
    const std::string where =
        c.model + (c.recommendation ? " (recommendation)" : " (search)");
    EXPECT_EQ(Describe(model->Traits(meta)), Describe(c.declared)) << where;
    EXPECT_EQ(model->Traits(meta).slate_scoring(), c.model == "Listwise-Attn")
        << where;

    ModelPool pool(meta, standardizer_);
    pool.RegisterOwned(c.model, std::move(model));
    EXPECT_EQ(Describe(pool.CurrentSnapshot(c.model)->traits()),
              Describe(c.stamped))
        << where;
  }
}

// ---------------------------------------------------------------------
// Versioned publishing and retirement.
// ---------------------------------------------------------------------

TEST_F(ModelPoolTest, UpdateModelPublishesNewVersionAndScores) {
  std::vector<std::vector<double>> want_a = ReferenceScores(model_a_);
  std::vector<std::vector<double>> want_b = ReferenceScores(model_b_);

  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  ServingEngine engine(&pool);

  RankResponse before = engine.Rank(RequestFor(0));
  EXPECT_EQ(before.model_version, 1);
  ASSERT_EQ(before.scores, want_a[0]);

  EXPECT_EQ(pool.UpdateModel("aw-moe", model_b_->Clone()), 2);
  EXPECT_EQ(pool.swap_count(), 1);
  EXPECT_EQ(engine.Stats().model_swaps, 1);

  RankResponse after = engine.Rank(RequestFor(0));
  EXPECT_EQ(after.model_version, 2);
  ASSERT_EQ(after.scores.size(), want_b[0].size());
  for (size_t i = 0; i < want_b[0].size(); ++i) {
    EXPECT_EQ(after.scores[i], want_b[0][i]) << "item " << i;
  }
  // The gate cache lives in the snapshot, so the new version starts
  // cold instead of serving rows computed under old weights.
  EXPECT_FALSE(after.gate_cache_hit);
}

TEST_F(ModelPoolTest, InFlightLeasePinsRetiredSnapshot) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  EXPECT_EQ(pool.live_snapshots(), 1);
  {
    SnapshotLease lease = pool.Acquire("aw-moe");
    EXPECT_EQ(lease.snapshot().version(), 1);
    pool.UpdateModel("aw-moe", model_b_->Clone());
    // The old snapshot survives while the lease holds it...
    EXPECT_EQ(pool.live_snapshots(), 2);
    EXPECT_EQ(lease.snapshot().version(), 1);
    // ...and new acquires already see the new version.
    EXPECT_EQ(pool.Acquire("aw-moe").snapshot().version(), 2);
  }
  // Last lease released: the retired snapshot frees itself.
  EXPECT_EQ(pool.live_snapshots(), 1);
}

TEST_F(ModelPoolTest, ConcurrentPublishersMintDistinctVersions) {
  ModelPool pool(data_->meta, standardizer_);
  pool.Register("aw-moe", model_a_);
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 25;
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&pool, this] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pool.UpdateModel("aw-moe", model_b_->Clone());
      }
    });
  }
  for (std::thread& publisher : publishers) publisher.join();
  // Every publish must have minted its own version: with a duplicate-
  // version race the final version would fall short of the swap count.
  EXPECT_EQ(pool.swap_count(), kPublishers * kPerPublisher);
  EXPECT_EQ(pool.CurrentSnapshot("aw-moe")->version(),
            1 + kPublishers * kPerPublisher);
  EXPECT_EQ(pool.live_snapshots(), 1);
}

// ---------------------------------------------------------------------
// The hot-swap storm (acceptance): a concurrent Submit storm across
// 100 UpdateModel publications must only ever see whole old-version or
// whole new-version responses — bitwise equal to the single-replica
// synchronous path for that version — and leak no snapshots.
// ---------------------------------------------------------------------

TEST_F(ModelPoolTest, HotSwapStormVersionConsistentAndLeakFree) {
  std::vector<std::vector<double>> want_a = ReferenceScores(model_a_);
  std::vector<std::vector<double>> want_b = ReferenceScores(model_b_);

  ModelPoolOptions pool_options;
  pool_options.replicas = 2;
  ModelPool pool(data_->meta, standardizer_, pool_options);
  pool.Register("aw-moe", model_a_);
  ServingEngine engine(&pool);

  constexpr int kSwaps = 100;
  constexpr size_t kThreads = 4;
  constexpr size_t kSubmitsPerThread = 150;
  std::vector<std::vector<RankResponse>> results(
      kThreads, std::vector<RankResponse>(kSubmitsPerThread));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &engine, &results] {
      for (size_t m = 0; m < kSubmitsPerThread; ++m) {
        results[t][m] = engine.Submit(RequestFor(t + m)).get();
      }
    });
  }
  // Let at least one request complete on version 1 before swapping, so
  // `old_version_hits > 0` below is guaranteed, not scheduling luck.
  while (engine.stats().requests() == 0) std::this_thread::yield();
  // Versions alternate: odd -> model A weights, even -> model B. The
  // tiny sleep spreads the 100 publications across the storm instead of
  // burning through them before the queue flushes twice.
  for (int swap = 0; swap < kSwaps; ++swap) {
    AwMoeRanker* next = (swap % 2 == 0) ? model_b_ : model_a_;
    const int64_t version = pool.UpdateModel("aw-moe", next->Clone());
    EXPECT_EQ(version, swap + 2);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::thread& thread : threads) thread.join();
  engine.Stop(/*drain=*/true);

  int64_t old_version_hits = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t m = 0; m < kSubmitsPerThread; ++m) {
      const RankResponse& response = results[t][m];
      ASSERT_TRUE(response.status.ok()) << response.status;
      ASSERT_GE(response.model_version, 1);
      ASSERT_LE(response.model_version, kSwaps + 1);
      // Whole-response version consistency: every score bitwise matches
      // the synchronous single-replica reference OF THAT VERSION — a
      // swap mid-batch can never mix weights within one response.
      const std::vector<std::vector<double>>& want =
          (response.model_version % 2 == 1) ? want_a : want_b;
      const std::vector<double>& session_want =
          want[(t + m) % sessions_->size()];
      ASSERT_EQ(response.scores.size(), session_want.size());
      for (size_t i = 0; i < session_want.size(); ++i) {
        ASSERT_EQ(response.scores[i], session_want[i])
            << "thread " << t << " submit " << m << " version "
            << response.model_version << " item " << i;
      }
      if (response.model_version < kSwaps + 1) ++old_version_hits;
    }
  }
  // Sanity: the storm actually interleaved with swaps (some requests
  // served by non-final versions) — otherwise the test proved nothing.
  EXPECT_GT(old_version_hits, 0);
  EXPECT_EQ(pool.swap_count(), kSwaps);
  // No snapshot leaked: with traffic drained and every lease released,
  // only the currently published snapshot remains.
  EXPECT_EQ(pool.live_snapshots(), 1);
}

}  // namespace
}  // namespace awmoe
