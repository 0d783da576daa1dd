// rerank_two_stage: one closed-loop client running TwoStageRanker::Rank
// (pointwise AW-MoE retrieval over 50 candidates, then the listwise
// self-attention reranker over the top 25) on one ServingEngine. Both
// models are trained in set-up with fixed training seeds on a world
// generated from the run seed. Every request carries a fresh session
// id, so the level-1 score cache never answers and every call pays both
// forwards; the engine is called synchronously, so the async queue is
// bypassed too. This is the only workload on the ScoreSlateInto path
// and slate admission.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/jd_synthetic.h"
#include "eval/metrics.h"
#include "models/listwise/listwise_reranker.h"
#include "serving/model_pool.h"
#include "serving/serving_engine.h"
#include "serving/two_stage.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads.h"

namespace awmoe {
namespace perfbench {

namespace {

constexpr char kRetriever[] = "aw-moe";
constexpr char kReranker[] = "listwise";
constexpr int64_t kCandidates = 50;
constexpr int64_t kTopK = 25;
/// Every kVerifyEvery-th call is verified, keeping at most 2 x
/// kMaxSamples results (see the loop).
constexpr int64_t kVerifyEvery = 16;
constexpr size_t kMaxSamples = 1024;
constexpr int64_t kReplayRequests = 100;
/// Windows of the end-to-end figures (see TrimmedMean), and of the
/// reported p99.
constexpr double kWindowS = 0.1;
constexpr double kP99WindowS = 1.0;
constexpr size_t kMinWindowCount = 100;
/// ndcg10 must reach this multiple of the expected NDCG@10 of the same
/// ranking with the slate in random order: what the reranker adds over
/// chance on the candidates retrieval hands it. A reranker whose scores
/// ignore its input ranks the slate by item index, about 1.2 times
/// chance; the trained one reads about 2 to 2.5 times chance.
constexpr double kSlateChanceMultipleFloor = 1.5;

/// The retriever is the serving model of the fleet workloads.
AwMoeConfig RetrieverConfig() {
  AwMoeConfig config;
  config.dims = ModelDims::Default();
  return config;
}

/// The reranker's per-candidate encoder shares the retriever's sizes;
/// its slate attention is one block of 16-wide tokens (bench_rerank's
/// sizes: a deeper or wider block trains unreliably on this world).
ListwiseDims RerankerDims() {
  ListwiseDims ldims;
  ldims.d_model = 16;
  ldims.num_heads = 2;
  ldims.num_layers = 1;
  ldims.ffn_hidden = {32};
  ldims.head_hidden = {16};
  ldims.max_slate_len = 64;
  return ldims;
}

/// Declaration order: the engine points at the pool, the pool at the
/// standardizer, requests at the test split.
struct RerankSystem {
  DatasetMeta meta;
  Standardizer standardizer;
  std::vector<Example> test;
  /// 50-candidate sessions: one user and query, all impressions.
  std::vector<std::vector<const Example*>> sessions;
  std::unique_ptr<Ranker> retriever_reference;
  std::unique_ptr<Ranker> reranker_reference;
  std::unique_ptr<ModelPool> pool;
  std::unique_ptr<ServingEngine> engine;
};

/// The retrieval top-K of every session of `train` (contiguous
/// session-id runs), best first, ties by position as in TwoStageRanker;
/// the slates follow each other in session order.
std::vector<Example> RetrievalSlates(
    Ranker* retriever, const std::vector<Example>& train,
    const RerankSystem& sys) {
  const std::vector<double> scores =
      Predict(retriever, train, sys.meta, &sys.standardizer);
  std::vector<Example> slates;
  size_t begin = 0;
  while (begin < train.size()) {
    size_t end = begin;
    while (end < train.size() &&
           train[end].session_id == train[begin].session_id) {
      ++end;
    }
    std::vector<size_t> order(end - begin);
    std::iota(order.begin(), order.end(), begin);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return scores[a] > scores[b];
    });
    order.resize(std::min(order.size(), static_cast<size_t>(kTopK)));
    for (size_t idx : order) slates.push_back(train[idx]);
    begin = end;
  }
  return slates;
}

std::unique_ptr<RerankSystem> SetUpRerank(const RunConfig& config) {
  JdConfig jd;
  jd.seed = config.seed;
  jd.num_users = 400;
  jd.num_items = 1000;
  jd.num_categories = 10;
  jd.brands_per_category = 4;
  jd.num_shops = 30;
  jd.items_per_session = kCandidates;
  jd.train_sessions = config.tiny ? 300 : 600;
  jd.test_sessions = config.tiny ? 20 : 200;
  jd.longtail1_sessions = 5;
  jd.longtail2_sessions = 5;
  JdDataset data = JdSyntheticGenerator(jd).Generate();

  auto sys = std::make_unique<RerankSystem>();
  sys->meta = data.meta;
  sys->standardizer.Fit(data.train);
  sys->test = std::move(data.full_test);
  for (auto& session : GroupBySession(sys->test)) {
    if (static_cast<int64_t>(session.size()) == kCandidates) {
      sys->sessions.push_back(std::move(session));
    }
  }
  AWMOE_CHECK(!sys->sessions.empty()) << "no full 50-candidate session";

  // Fixed training seeds: the world changes with the run seed, the
  // recipe does not.
  Rng retriever_rng(31);
  auto retriever = std::make_unique<AwMoeRanker>(sys->meta, RetrieverConfig(),
                                                 &retriever_rng);
  TrainerConfig retriever_config;
  retriever_config.batch_size = 128;
  retriever_config.epochs = 2;
  retriever_config.seed = 5;
  Trainer(retriever.get(), retriever_config)
      .Train(data.train, sys->meta, &sys->standardizer);

  // The reranker learns from what it is served: each training session's
  // retrieval top-K, in retrieval order (its position embedding then
  // carries the retrieval rank, as in TwoStageRanker).
  const std::vector<Example> slates =
      RetrievalSlates(retriever.get(), data.train, *sys);
  Rng reranker_rng(47);
  auto reranker = std::make_unique<ListwiseReranker>(
      sys->meta, RetrieverConfig().dims, RerankerDims(), &reranker_rng);
  TrainerConfig reranker_config;
  reranker_config.batch_size = 128;
  reranker_config.epochs = 4;
  reranker_config.lr = 1e-3f;
  reranker_config.seed = 9;
  Trainer(reranker.get(), reranker_config)
      .Train(slates, sys->meta, &sys->standardizer);

  sys->retriever_reference = retriever->Clone();
  sys->reranker_reference = reranker->Clone();
  sys->pool = std::make_unique<ModelPool>(sys->meta, &sys->standardizer);
  sys->pool->RegisterOwned(kRetriever, std::move(retriever));
  sys->pool->RegisterOwned(kReranker, std::move(reranker));
  sys->engine = std::make_unique<ServingEngine>(sys->pool.get());
  return sys;
}

struct Sample {
  size_t session = 0;
  int64_t session_id = 0;
  TwoStageResult result;
};

/// A private single-replica, caches-off engine over a clone of `model`.
struct ReferenceEngine {
  ReferenceEngine(const RerankSystem& sys, const Ranker& model)
      : pool(sys.meta, &sys.standardizer) {
    pool.RegisterOwned("reference", model.Clone());
    ServingEngineOptions caches_off;
    caches_off.gate_cache_capacity = 0;
    caches_off.score_cache_capacity = 0;
    caches_off.encoding_cache_capacity = 0;
    engine = std::make_unique<ServingEngine>(&pool, caches_off);
  }
  ModelPool pool;
  std::unique_ptr<ServingEngine> engine;  // After pool: destroyed first.
};

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Checks each sample's stage-1 scores against the retriever alone, its
/// slate against the stable top-K of those scores, and its stage-2
/// scores against a direct slate Rank of the reranker; returns the
/// number of samples failing any check.
int64_t Verify(const RerankSystem& sys, const std::vector<Sample>& samples) {
  ReferenceEngine retriever(sys, *sys.retriever_reference);
  ReferenceEngine reranker(sys, *sys.reranker_reference);
  int64_t mismatches = 0;
  for (const Sample& sample : samples) {
    const std::vector<const Example*>& items = sys.sessions[sample.session];
    RankRequest request;
    request.session_id = sample.session_id;
    request.items = items;
    const RankResponse stage1 = retriever.engine->Rank(request);

    std::vector<size_t> order(items.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return stage1.scores[a] > stage1.scores[b];
    });
    order.resize(std::min(order.size(), static_cast<size_t>(kTopK)));

    RankRequest slate;
    slate.session_id = sample.session_id;
    for (size_t idx : order) slate.items.push_back(items[idx]);
    const RankResponse stage2 = reranker.engine->Rank(slate);

    const bool ok = sample.result.status.ok() && stage1.status.ok() &&
                    stage2.status.ok() &&
                    BitwiseEqual(stage1.scores, sample.result.retrieval_scores) &&
                    order == sample.result.slate &&
                    BitwiseEqual(stage2.scores, sample.result.rerank_scores);
    if (!ok) ++mismatches;
  }
  return mismatches;
}

double Ndcg10(const std::vector<const Example*>& items,
              const std::vector<double>& scores) {
  std::vector<float> labels;
  labels.reserve(items.size());
  for (const Example* ex : items) labels.push_back(ex->label);
  return NdcgOf(labels, scores, 10);
}

/// Expected NDCG@10 of `items` when the first ten places are filled in
/// uniformly random order from `pool` (at least ten of the items): every
/// place then holds the pool's mean label.
double RandomOrderNdcg10(const std::vector<const Example*>& items,
                         const std::vector<const Example*>& pool) {
  std::vector<double> labels;
  for (const Example* ex : items) labels.push_back(ex->label);
  std::sort(labels.begin(), labels.end(), std::greater<double>());
  double pool_mean = 0.0;
  for (const Example* ex : pool) pool_mean += ex->label;
  pool_mean /= static_cast<double>(pool.size());
  double dcg = 0.0;
  double ideal = 0.0;
  for (size_t p = 0; p < std::min<size_t>(10, labels.size()); ++p) {
    const double discount = 1.0 / std::log2(static_cast<double>(p) + 2.0);
    dcg += discount * pool_mean;
    ideal += discount * labels[p];
  }
  return ideal > 0.0 ? dcg / ideal : 0.0;
}

}  // namespace

RunResult RunRerankTwoStage(const RunConfig& config) {
  std::unique_ptr<RerankSystem> sys;
  const double setup_s = MedianSetupSeconds(
      [&] { sys.reset(); }, [&] { sys = SetUpRerank(config); });

  TwoStageOptions options;
  options.retrieval_model = kRetriever;
  options.rerank_model = kReranker;
  options.top_k = kTopK;
  TwoStageRanker ranker(sys->engine.get(), options);

  Rng order_rng(config.seed * 7919 + 11);
  int64_t next_session_id = 1;
  auto next_request = [&](size_t* session) {
    *session = static_cast<size_t>(
        order_rng.UniformInt(static_cast<int64_t>(sys->sessions.size())));
    RankRequest request;
    request.session_id = next_session_id++;  // Never a level-1 repeat.
    request.items = sys->sessions[*session];
    return request;
  };

  // Warm-up: workspaces, caches of the CPU.
  const Clock::time_point warm_end =
      Clock::now() + std::chrono::milliseconds(config.tiny ? 100 : 1000);
  while (Clock::now() < warm_end) {
    size_t session = 0;
    ranker.Rank(next_request(&session));
  }
  sys->engine->ResetStats();

  std::vector<double> start_s;
  std::vector<double> latency_ms;
  std::vector<double> retrieve_ms;
  std::vector<double> rerank_ms;
  std::vector<Sample> samples;
  std::vector<size_t> replay_sessions;
  std::vector<std::vector<const Example*>> replay_slates;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t verify_every = kVerifyEvery;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  Clock::time_point now = start;
  ClosedLoopWindows windows(kWindowS, start);
  // The client moves to the next CPU with every window.
  CpuRotation rotation;
  rotation.Next();
  while (now < end) {
    size_t session = 0;
    RankRequest request = next_request(&session);
    const int64_t session_id = request.session_id;
    const Clock::time_point call = Clock::now();
    TwoStageResult result = ranker.Rank(request);
    now = Clock::now();
    ++attempted;
    // A failed call stays in the latency and throughput figures, so a
    // change that fails fast cannot read as a speed-up (it also fails
    // the run).
    start_s.push_back(MillisBetween(start, call) / 1e3);
    latency_ms.push_back(MillisBetween(call, now));
    const size_t closed = windows.p50_ms().size();
    windows.Record(latency_ms.back(), now, 1.0);
    if (windows.p50_ms().size() != closed) rotation.Next();
    if (!result.status.ok()) {
      ++failed;
      continue;
    }
    if (config.trace) {
      retrieve_ms.push_back(result.retrieve_ms);
      rerank_ms.push_back(result.rerank_ms);
    }
    if (static_cast<int64_t>(replay_sessions.size()) < kReplayRequests) {
      replay_sessions.push_back(session);
      std::vector<const Example*> slate;
      for (size_t idx : result.slate) {
        slate.push_back(sys->sessions[session][idx]);
      }
      replay_slates.push_back(std::move(slate));
    }
    if ((attempted - 1) % verify_every == 0) {
      samples.push_back(Sample{session, session_id, std::move(result)});
      if (samples.size() >= 2 * kMaxSamples) {
        // Keep every other sample and halve the rate, so the verified
        // share stays spread over the whole window and its memory does
        // not grow with throughput (peak_rss_mb would read a speed-up
        // as a regression).
        for (size_t k = 1; k < kMaxSamples; ++k) {  // samples[0] stays.
          samples[k] = std::move(samples[2 * k]);
        }
        samples.resize(kMaxSamples);
        verify_every *= 2;
      }
    }
  }
  windows.Finish(now);
  rotation.Stop();
  const double window_s = MillisBetween(start, now) / 1e3;
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const ServingStatsSnapshot stats = sys->engine->Stats();

  const int64_t mismatches = Verify(*sys, samples);
  const int64_t completed = attempted - failed;
  // Ranking quality over the verified share, outside the timed window.
  double ndcg10 = 0.0;
  double retrieval_ndcg10 = 0.0;
  double chance_ndcg10 = 0.0;
  double slate_chance_ndcg10 = 0.0;
  for (const Sample& sample : samples) {
    const std::vector<const Example*>& items = sys->sessions[sample.session];
    std::vector<const Example*> slate;
    for (size_t idx : sample.result.slate) slate.push_back(items[idx]);
    ndcg10 += Ndcg10(items, sample.result.final_scores);
    retrieval_ndcg10 += Ndcg10(items, sample.result.retrieval_scores);
    chance_ndcg10 += RandomOrderNdcg10(items, items);
    slate_chance_ndcg10 += RandomOrderNdcg10(items, slate);
  }
  if (!samples.empty()) {
    const double n = static_cast<double>(samples.size());
    ndcg10 /= n;
    retrieval_ndcg10 /= n;
    chance_ndcg10 /= n;
    slate_chance_ndcg10 /= n;
  }
  const LatencySummary latency = Summarize(latency_ms);

  RunResult result;
  result.threads = 1;
  result.attempted = attempted;
  result.failed = failed + mismatches;
  // Quality floor (see kSlateChanceMultipleFloor): below it the reranker
  // is broken even if every score is bitwise reproducible.
  result.correct = failed == 0 && mismatches == 0 && !samples.empty() &&
                   std::isfinite(ndcg10) &&
                   ndcg10 >= kSlateChanceMultipleFloor * slate_chance_ndcg10;
  SetEndToEnd(&result, "setup_s", setup_s);
  SetEndToEnd(&result, "p50_ms", TrimmedMean(windows.p50_ms()));
  SetEndToEnd(&result, "throughput_per_s",
              TrimmedMean(windows.units_per_s()));
  SetEndToEnd(&result, "cpu_ms_per_req", TrimmedMean(windows.cpu_ms_per_op()));
  SetEndToEnd(&result, "peak_rss_mb", PeakRssMb());

  result.report.Add("clients", static_cast<int64_t>(1))
      .Add("candidates", kCandidates)
      .Add("top_k", kTopK)
      .Add("latency_from_call", latency.ToJson())
      .Add("p99_ms_lower_quartile_of_1s_windows",
           LowerQuartile(WindowP99s(start_s, latency_ms, kP99WindowS,
                                    kMinWindowCount)))
      .Add("throughput_qps_whole_run", completed / window_s)
      .Add("cpu_ms_per_req_whole_run",
           completed > 0 ? 1e3 * cpu_s / completed : 0.0)
      .AddRaw("window_p50s_ms", JsonArray(windows.p50_ms()))
      .AddRaw("window_qps", JsonArray(windows.units_per_s()))
      .Add("fail_rate", static_cast<double>(result.failed) /
                            static_cast<double>(std::max<int64_t>(attempted, 1)))
      .Add("verified", static_cast<int64_t>(samples.size()))
      .Add("verification_mismatches", mismatches)
      .Add("ndcg10", ndcg10)
      .Add("ndcg10_retrieval_only", retrieval_ndcg10)
      .Add("ndcg10_random_order", chance_ndcg10)
      .Add("ndcg10_random_slate_order", slate_chance_ndcg10)
      .Add("ndcg10_floor", kSlateChanceMultipleFloor * slate_chance_ndcg10)
      .Add("slates", stats.slates);

  if (config.trace) {
    std::vector<std::vector<const Example*>> retrieval;
    for (size_t s : replay_sessions) retrieval.push_back(sys->sessions[s]);
    const LayerReplay stage1 = ReplayRequests(
        *sys->retriever_reference, sys->meta, &sys->standardizer, retrieval, 5,
        config.trace_out.empty() ? "" : config.trace_out + ".retrieve");
    const LayerReplay stage2 =
        ReplayRequests(*sys->reranker_reference, sys->meta, &sys->standardizer,
                       replay_slates, 5, config.trace_out);
    SetPerLayer(&result, "nn.matmul_gflops",
                ExpertMatMulGflops(sys->meta, RetrieverConfig().dims,
                                   kCandidates, MatMulPath::kInference,
                                   config.tiny ? 0.02 : 0.2));
    SetPerLayer(&result, "nn.sigmoid_us_per_row", stage1.sigmoid_us_per_row);
    SetPerLayer(&result, "models.score_us_per_row", stage1.score_us_per_row);
    SetPerLayer(&result, "models.gate_us_per_session",
                stage1.gate_us_per_session);
    SetPerLayer(&result, "models.encode_us_per_session",
                stage1.encode_us_per_session);
    SetPerLayer(&result, "models.tail_us_per_row", stage1.tail_us_per_row);
    SetPerLayer(&result, "models.slate_us_per_slate",
                stage2.slate_us_per_slate);
    SetPerLayer(&result, "data.collate_us_per_row", stage1.collate_us_per_row);
    SetPerLayer(&result, "serving.lease_us", stage1.lease_us);
    SetPerLayer(&result, "serving.service_ms", latency.p50);
    SetServingStatsMetrics(stats, &result);
    SetPerLayer(&result, "serving.retrieve_ms", Median(retrieve_ms));
    SetPerLayer(&result, "serving.rerank_ms", Median(rerank_ms));
    SetPerLayer(&result, "trace.coverage",
                (stage1.request_p50_ms + stage2.request_p50_ms) / latency.p50);
    SetPerLayer(&result, "trace.overhead_pct",
                0.5 * (stage1.overhead_pct + stage2.overhead_pct));
  }
  return result;
}

}  // namespace perfbench
}  // namespace awmoe
