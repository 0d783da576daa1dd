// Two-stage retrieve -> rerank bench (ROADMAP item 4): trains the
// pointwise AW-MoE retriever and the listwise self-attention reranker
// on one synthetic world, then measures (a) ranking accuracy of
// pointwise-only vs the two-stage pipeline over the holdout sessions,
// and (b) serving latency of the slate-scoring path at slate sizes
// 10 / 25 / 50 through a live ServingEngine (the rerank-stage histogram
// isolates the slate forward from collation and fan-out).
//
// `--json` writes the machine-readable artifact consumed by the CI
// bench-smoke upload, including the acceptance gate: the two-stage
// NDCG@10 must not be below pointwise-only. The gate is defined on the
// `--smoke` sizing (what CI runs); the synthetic world generates labels
// pointwise (no slate-context effects), so the reranker's edge there
// comes from listwise training acting as a regulariser on the small
// corpus — at the full sizing the higher-capacity pointwise model can
// win, which the bench reports without gating.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "eval/metrics.h"
#include "models/listwise/listwise_reranker.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"
#include "serving/two_stage.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;

struct RerankFlags {
  int64_t top_k = 25;
  int64_t listwise_epochs = 0;  // 0 = sizing default.
  double listwise_lr = 1e-3;
  int64_t seed = 20230613;
  bool smoke = false;
  std::string json;
};

JdConfig World(const RerankFlags& flags) {
  JdConfig config;
  config.num_users = 400;
  config.num_items = 300;
  config.num_categories = 8;
  config.brands_per_category = 4;
  config.num_shops = 20;
  config.train_sessions = flags.smoke ? 240 : 800;
  config.test_sessions = flags.smoke ? 60 : 150;
  config.longtail1_sessions = 5;
  config.longtail2_sessions = 5;
  config.seed = static_cast<uint64_t>(flags.seed);
  return config;
}

AwMoeConfig BenchModelConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 8;
  config.dims.tower_mlp = {16, 8};
  config.dims.activation_unit = {8, 4};
  config.dims.gate_unit = {8, 4};
  config.dims.expert = {16, 8};
  return config;
}

ListwiseDims BenchListwiseDims() {
  ListwiseDims ldims;
  ldims.d_model = 16;
  ldims.num_heads = 2;
  ldims.num_layers = 1;
  ldims.ffn_hidden = {32};
  ldims.head_hidden = {16};
  ldims.max_slate_len = 64;
  return ldims;
}

std::string Bool(bool b) { return b ? "true" : "false"; }

struct SlateLatency {
  int64_t slate_size = 0;
  int64_t slates = 0;
  double rerank_p50_ms = 0.0;
  double rerank_p99_ms = 0.0;
  double request_p50_ms = 0.0;
  double request_p99_ms = 0.0;
};

/// Serving latency of the slate path at one fixed slate size: a fresh
/// engine (fresh stats), synchronous Ranks over slates carved from the
/// holdout examples. The score cache is bypassed for slate models, so
/// every request pays a real forward.
SlateLatency MeasureSlateLatency(ModelPool* pool,
                                 const std::vector<const Example*>& items,
                                 int64_t slate_size, int64_t requests) {
  ServingEngine engine(pool);
  size_t cursor = 0;
  for (int64_t r = 0; r < requests; ++r) {
    RankRequest request;
    request.model = "listwise";
    request.items.reserve(static_cast<size_t>(slate_size));
    for (int64_t i = 0; i < slate_size; ++i) {
      request.items.push_back(items[cursor++ % items.size()]);
    }
    request.session_id = request.items[0]->session_id;
    RankResponse response = engine.Rank(request);
    if (!response.status.ok()) {
      std::fprintf(stderr, "[rerank] slate rank failed: %s\n",
                   response.status.ToString().c_str());
      break;
    }
  }
  ServingStatsSnapshot snap = engine.Stats();
  SlateLatency latency;
  latency.slate_size = slate_size;
  latency.slates = snap.slates;
  latency.rerank_p50_ms = snap.rerank_p50_ms;
  latency.rerank_p99_ms = snap.rerank_p99_ms;
  latency.request_p50_ms = snap.p50_ms;
  latency.request_p99_ms = snap.p99_ms;
  return latency;
}

void WriteJson(const std::string& path, const RerankFlags& flags,
               const RankingEvaluation& pointwise,
               const RankingEvaluation& two_stage,
               const std::vector<SlateLatency>& latencies,
               double train_pointwise_s, double train_listwise_s,
               double total_seconds) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"rerank\",\n";
  out << "  \"smoke\": " << Bool(flags.smoke) << ",\n";
  out << "  \"top_k\": " << flags.top_k << ",\n";
  out << "  \"train_pointwise_seconds\": " << train_pointwise_s << ",\n";
  out << "  \"train_listwise_seconds\": " << train_listwise_s << ",\n";
  out << "  \"total_seconds\": " << total_seconds << ",\n";
  out << "  \"accuracy\": {\n";
  out << "    \"pointwise_ndcg_at_10\": " << pointwise.ndcg_at_k << ",\n";
  out << "    \"pointwise_ndcg\": " << pointwise.ndcg << ",\n";
  out << "    \"two_stage_ndcg_at_10\": " << two_stage.ndcg_at_k << ",\n";
  out << "    \"two_stage_ndcg\": " << two_stage.ndcg << "\n";
  out << "  },\n";
  out << "  \"latency\": [\n";
  for (size_t i = 0; i < latencies.size(); ++i) {
    const SlateLatency& l = latencies[i];
    out << "    {\"slate_size\": " << l.slate_size
        << ", \"slates\": " << l.slates
        << ", \"rerank_p50_ms\": " << l.rerank_p50_ms
        << ", \"rerank_p99_ms\": " << l.rerank_p99_ms
        << ", \"request_p50_ms\": " << l.request_p50_ms
        << ", \"request_p99_ms\": " << l.request_p99_ms << "}"
        << (i + 1 == latencies.size() ? "" : ",") << "\n";
  }
  out << "  ],\n";
  out << "  \"gates\": {\n";
  out << "    \"rerank_ndcg_ge_pointwise\": "
      << Bool(two_stage.ndcg_at_k >= pointwise.ndcg_at_k) << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("[rerank] JSON artifact written to %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  RerankFlags flags;
  FlagSet flag_set(
      "Two-stage retrieve -> rerank: pointwise AW-MoE retrieval feeding the "
      "listwise self-attention reranker through the serving engine, with "
      "accuracy vs pointwise-only and slate-path latency at 10/25/50");
  flag_set.AddInt("top_k", &flags.top_k,
                  "slate size of the rerank stage (stage-1 winners kept)");
  flag_set.AddInt("listwise_epochs", &flags.listwise_epochs,
                  "reranker training epochs (0 = sizing default)");
  flag_set.AddDouble("listwise_lr", &flags.listwise_lr,
                     "reranker learning rate");
  flag_set.AddInt("seed", &flags.seed, "base RNG seed");
  flag_set.AddBool("smoke", &flags.smoke,
                   "CI smoke sizing (small corpus, fewer epochs/requests)");
  flag_set.AddString("json", &flags.json,
                     "path for the machine-readable artifact (empty = skip)");
  Status status = flag_set.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  Stopwatch total_watch;
  std::printf("[rerank] generating world...\n");
  JdDataset data = JdSyntheticGenerator(World(flags)).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);

  std::printf("[rerank] training the pointwise retriever (AW-MoE)...\n");
  Rng pointwise_rng(31);
  auto pointwise_model = std::make_unique<AwMoeRanker>(
      data.meta, BenchModelConfig(), &pointwise_rng);
  TrainerConfig pointwise_config;
  pointwise_config.batch_size = 128;
  pointwise_config.epochs = flags.smoke ? 4 : 6;
  pointwise_config.seed = 5;
  Stopwatch pointwise_watch;
  Trainer pointwise_trainer(pointwise_model.get(), pointwise_config);
  pointwise_trainer.Train(data.train, data.meta, &standardizer);
  const double train_pointwise_s = pointwise_watch.ElapsedSeconds();

  std::printf("[rerank] training the listwise reranker (ListNet)...\n");
  Rng listwise_rng(47);
  auto listwise_model = std::make_unique<ListwiseReranker>(
      data.meta, BenchModelConfig().dims, BenchListwiseDims(), &listwise_rng);
  TrainerConfig listwise_config;
  listwise_config.batch_size = 128;  // Whole sessions per batch.
  listwise_config.epochs =
      flags.listwise_epochs > 0 ? flags.listwise_epochs : 8;
  listwise_config.lr = static_cast<float>(flags.listwise_lr);
  listwise_config.seed = 9;
  Stopwatch listwise_watch;
  Trainer listwise_trainer(listwise_model.get(), listwise_config);
  listwise_trainer.Train(data.train, data.meta, &standardizer);
  const double train_listwise_s = listwise_watch.ElapsedSeconds();

  ModelPool pool(data.meta, &standardizer);
  pool.RegisterOwned("aw-moe", std::move(pointwise_model));
  pool.RegisterOwned("listwise", std::move(listwise_model));

  // --- Accuracy over the holdout: pointwise-only vs two-stage. Both
  // run through the same engine; sessions are contiguous runs in
  // full_test, so per-session scores concatenate into aligned vectors.
  std::printf("[rerank] scoring the holdout (%zu examples)...\n",
              data.full_test.size());
  ServingEngine engine(&pool);
  TwoStageOptions two_stage_options;
  two_stage_options.retrieval_model = "aw-moe";
  two_stage_options.rerank_model = "listwise";
  two_stage_options.top_k = flags.top_k;
  TwoStageRanker two_stage(&engine, two_stage_options);

  const std::vector<std::vector<const Example*>> sessions =
      GroupBySession(data.full_test);
  std::vector<double> pointwise_scores;
  std::vector<double> two_stage_scores;
  pointwise_scores.reserve(data.full_test.size());
  two_stage_scores.reserve(data.full_test.size());
  double retrieve_ms = 0.0;
  double rerank_ms = 0.0;
  for (const auto& session : sessions) {
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.model = "aw-moe";
    request.items = session;
    TwoStageResult result = two_stage.Rank(request);
    if (!result.status.ok()) {
      std::fprintf(stderr, "[rerank] two-stage rank failed: %s\n",
                   result.status.ToString().c_str());
      return 1;
    }
    pointwise_scores.insert(pointwise_scores.end(),
                            result.retrieval_scores.begin(),
                            result.retrieval_scores.end());
    two_stage_scores.insert(two_stage_scores.end(),
                            result.final_scores.begin(),
                            result.final_scores.end());
    retrieve_ms += result.retrieve_ms;
    rerank_ms += result.rerank_ms;
  }
  const RankingEvaluation pointwise_eval =
      EvaluateRanking(data.full_test, pointwise_scores, 10);
  const RankingEvaluation two_stage_eval =
      EvaluateRanking(data.full_test, two_stage_scores, 10);

  TablePrinter accuracy("Holdout ranking accuracy (session-grouped)");
  accuracy.SetHeader({"Pipeline", "NDCG@10", "NDCG", "AUC"});
  accuracy.AddRow({"Pointwise AW-MoE", FormatDouble(pointwise_eval.ndcg_at_k, 4),
                   FormatDouble(pointwise_eval.ndcg, 4),
                   FormatDouble(pointwise_eval.auc, 4)});
  accuracy.AddRow({"Two-stage (rerank top-" + std::to_string(flags.top_k) + ")",
                   FormatDouble(two_stage_eval.ndcg_at_k, 4),
                   FormatDouble(two_stage_eval.ndcg, 4),
                   FormatDouble(two_stage_eval.auc, 4)});
  accuracy.Print();

  // --- Serving latency of the slate path at fixed slate sizes.
  std::vector<const Example*> items;
  items.reserve(data.full_test.size());
  for (const Example& ex : data.full_test) items.push_back(&ex);
  const int64_t requests = flags.smoke ? 30 : 200;
  std::vector<SlateLatency> latencies;
  for (int64_t slate_size : {int64_t{10}, int64_t{25}, int64_t{50}}) {
    latencies.push_back(
        MeasureSlateLatency(&pool, items, slate_size, requests));
  }

  TablePrinter latency_table("Slate-path serving latency (listwise model)");
  latency_table.SetHeader({"Slate", "Slates", "Rerank p50 ms", "Rerank p99 ms",
                           "Request p50 ms", "Request p99 ms"});
  for (const SlateLatency& l : latencies) {
    latency_table.AddRow({std::to_string(l.slate_size),
                          std::to_string(l.slates),
                          FormatDouble(l.rerank_p50_ms, 3),
                          FormatDouble(l.rerank_p99_ms, 3),
                          FormatDouble(l.request_p50_ms, 3),
                          FormatDouble(l.request_p99_ms, 3)});
  }
  latency_table.Print();

  const double total_seconds = total_watch.ElapsedSeconds();
  const bool gate = two_stage_eval.ndcg_at_k >= pointwise_eval.ndcg_at_k;
  std::printf(
      "[rerank] NDCG@10 pointwise %.4f -> two-stage %.4f (%s); holdout "
      "retrieve %.1f ms + rerank %.1f ms over %zu sessions; total %.1f s\n",
      pointwise_eval.ndcg_at_k, two_stage_eval.ndcg_at_k,
      gate ? "GATE PASS" : "GATE MISS", retrieve_ms, rerank_ms,
      sessions.size(), total_seconds);

  if (!flags.json.empty()) {
    WriteJson(flags.json, flags, pointwise_eval, two_stage_eval, latencies,
              train_pointwise_s, train_listwise_s, total_seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
