// Traced replay of requests through the layer entry points of one
// ServingEngine forward, timed from outside around each public call,
// plus the expert-shape matmul rates and the engine-counter metrics the
// serving workloads share.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mat/kernels.h"
#include "models/model_dims.h"
#include "models/ranker.h"
#include "nn/inference.h"
#include "serving/model_pool.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads.h"

namespace awmoe {
namespace perfbench {

namespace {

/// Computes the session's gate (or encoding) row once on a one-row probe
/// batch, then replicates it per candidate into the workspace staging
/// slot `rows_slot`, as the engine does for a gate-sharing model.
std::span<float> ProbeAndReplicate(
    SpanRecorder* rec, const char* span_name, int64_t id, int parent,
    const std::vector<const Example*>& probe, const DatasetMeta& meta,
    const Standardizer* standardizer, int64_t width, int64_t rows,
    InferenceWorkspace* workspace, InferenceWorkspace::StagingSlot probe_slot,
    InferenceWorkspace::StagingSlot rows_slot,
    void (Ranker::*probe_fn)(const Batch&, InferenceWorkspace*,
                             std::span<float>),
    Ranker* model) {
  std::span<float> row = workspace->Staging(probe_slot, width);
  {
    ScopedSpan span(rec, span_name, id, parent);
    Batch probe_batch;
    {
      ScopedSpan inner(rec, "data.collate", id, span.index());
      probe_batch = CollateBatch(probe, meta, standardizer);
    }
    (model->*probe_fn)(probe_batch, workspace, row);
  }
  std::span<float> replicated = workspace->Staging(rows_slot, rows * width);
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(row.begin(), row.end(), replicated.begin() + r * width);
  }
  return replicated;
}

/// One pass over every request. Returns the round's wall time (ms);
/// appends each request's collate..sigmoid time to `request_ms` and
/// counts the rows collated into `collated_rows`.
double ReplayRound(ModelPool* pool, const std::string& name,
                   const DatasetMeta& meta, const Standardizer* standardizer,
                   const std::vector<std::vector<const Example*>>& requests,
                   SpanRecorder* rec, std::vector<double>* request_ms,
                   int64_t* collated_rows) {
  const Clock::time_point round_start = Clock::now();
  std::vector<float> logits;
  std::vector<float> fused;
  const std::vector<int64_t> one_slate = {0};
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<const Example*>& items = requests[i];
    const int64_t id = static_cast<int64_t>(i);
    const Clock::time_point start = Clock::now();
    Batch batch;
    SnapshotLease lease;
    InferenceWorkspace* workspace = nullptr;
    Ranker* model = nullptr;
    {
      ScopedSpan root(rec, "serving.request", id);
      {
        ScopedSpan span(rec, "data.collate", id, root.index());
        batch = CollateBatch(items, meta, standardizer);
      }
      *collated_rows += batch.size;
      {
        ScopedSpan span(rec, "serving.lease", id, root.index());
        lease = pool->Acquire(name);
        workspace = lease.lane().EnsureWorkspace(batch.size);
      }
      model = lease.lane().model;
      logits.assign(static_cast<size_t>(batch.size), 0.0f);
      if (model->SupportsSlateScoring()) {
        ScopedSpan span(rec, "models.slate", id, root.index());
        model->ScoreSlateInto(batch, one_slate, workspace, logits);
      } else {
        const std::vector<const Example*> probe = {items[0]};
        SessionGate gate;
        SessionEncoding encoding;
        const bool shared = model->SupportsSessionGateReuse(meta);
        const bool encode = model->SupportsSessionEncodingReuse(meta);
        if (shared) {
          const int64_t width = model->SessionGateWidth();
          std::span<float> rows = ProbeAndReplicate(
              rec, "models.gate", id, root.index(), probe, meta, standardizer,
              width, batch.size, workspace, InferenceWorkspace::kGateProbe,
              InferenceWorkspace::kGateRows, &Ranker::GateInto, model);
          gate = SessionGate{rows.data(), batch.size, width};
          *collated_rows += 1;
        }
        if (encode) {
          const int64_t width = model->SessionEncodingWidth();
          std::span<float> rows = ProbeAndReplicate(
              rec, "models.encode", id, root.index(), probe, meta,
              standardizer, width, batch.size, workspace,
              InferenceWorkspace::kSessionProbe,
              InferenceWorkspace::kSessionRows, &Ranker::EncodeSessionInto,
              model);
          encoding = SessionEncoding{rows.data(), batch.size, width};
          *collated_rows += 1;
        }
        ScopedSpan span(rec, "models.tail", id, root.index());
        model->ScoreWithSessionInto(batch, shared ? &gate : nullptr,
                                    encode ? &encoding : nullptr, workspace,
                                    logits);
      }
      {
        ScopedSpan span(rec, "nn.sigmoid", id, root.index());
        SigmoidSpanInto(logits, logits);
      }
    }
    request_ms->push_back(MillisBetween(start, Clock::now()));
    if (!model->SupportsSlateScoring()) {
      // The fused single-call forward on the same batch, its own root.
      fused.assign(static_cast<size_t>(batch.size), 0.0f);
      ScopedSpan span(rec, "models.score", id);
      model->ScoreInto(batch, nullptr, workspace, fused);
    }
  }
  return MillisBetween(round_start, Clock::now());
}

}  // namespace

LayerReplay ReplayRequests(
    const Ranker& model, const DatasetMeta& meta,
    const Standardizer* standardizer,
    const std::vector<std::vector<const Example*>>& requests, int rounds,
    const std::string& trace_out) {
  AWMOE_CHECK(!requests.empty() && rounds >= 1);
  ModelPool pool(meta, standardizer);
  std::unique_ptr<Ranker> clone = model.Clone();
  AWMOE_CHECK(clone != nullptr) << model.name() << " cannot Clone()";
  pool.RegisterOwned("replay", std::move(clone));
  const std::string name = pool.ResolveName("replay");

  // Warm the lane's workspace and the CPU caches.
  {
    SpanRecorder off(false);
    std::vector<double> ignored;
    int64_t rows = 0;
    ReplayRound(&pool, name, meta, standardizer, requests, &off, &ignored,
                &rows);
  }
  double best_untraced_ms = 0.0;
  double best_traced_ms = 0.0;
  std::vector<double> best_request_ms;
  SpanRecorder best_trace(true);
  int64_t traced_rows = 0;
  for (int r = 0; r < rounds; ++r) {
    SpanRecorder off(false);
    std::vector<double> request_ms;
    int64_t rows = 0;
    const double untraced = ReplayRound(&pool, name, meta, standardizer,
                                        requests, &off, &request_ms, &rows);
    if (r == 0 || untraced < best_untraced_ms) {
      best_untraced_ms = untraced;
      best_request_ms = std::move(request_ms);
    }
    SpanRecorder on(true);
    std::vector<double> ignored;
    rows = 0;
    const double traced = ReplayRound(&pool, name, meta, standardizer,
                                      requests, &on, &ignored, &rows);
    if (r == 0 || traced < best_traced_ms) {
      best_traced_ms = traced;
      best_trace = std::move(on);
      traced_rows = rows;
    }
  }

  const std::map<std::string, double> self = best_trace.SelfTimesUs();
  const std::map<std::string, int64_t> counts = best_trace.Counts();
  auto self_us = [&](const char* key) {
    auto it = self.find(key);
    return it == self.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per = [](double total, double units) {
    return units > 0 ? total / units : 0.0;
  };
  double rows = 0.0;
  for (const auto& items : requests) rows += static_cast<double>(items.size());

  LayerReplay out;
  out.collate_us_per_row =
      per(self_us("data.collate"), static_cast<double>(traced_rows));
  out.lease_us = per(self_us("serving.lease"), count("serving.lease"));
  out.gate_us_per_session = per(self_us("models.gate"), count("models.gate"));
  out.encode_us_per_session =
      per(self_us("models.encode"), count("models.encode"));
  out.tail_us_per_row = per(self_us("models.tail"), rows);
  out.slate_us_per_slate = per(self_us("models.slate"), count("models.slate"));
  out.sigmoid_us_per_row = per(self_us("nn.sigmoid"), rows);
  out.score_us_per_row = per(self_us("models.score"), rows);
  out.request_p50_ms = Median(best_request_ms);
  out.overhead_pct =
      100.0 * (best_traced_ms - best_untraced_ms) / best_untraced_ms;
  if (!trace_out.empty()) {
    AWMOE_CHECK(best_trace.WriteJson(trace_out))
        << "cannot write trace " << trace_out;
  }
  return out;
}

void SetServingStatsMetrics(const ServingStatsSnapshot& stats,
                            RunResult* result) {
  SetPerLayer(result, "serving.batch_requests_mean",
              stats.mean_batch_requests);
  SetPerLayer(result, "serving.batch_items_mean", stats.mean_batch_items);
  SetPerLayer(result, "serving.score_cache_hit_ratio",
              HitRatio(stats.score_cache_hits, stats.score_cache_misses));
  SetPerLayer(result, "serving.encoding_cache_hit_ratio",
              HitRatio(stats.encoding_cache_hits, stats.encoding_cache_misses));
  SetPerLayer(result, "serving.gate_cache_hit_ratio",
              HitRatio(stats.gate_cache_hits, stats.gate_cache_misses));
  SetPerLayer(result, "serving.cache_bytes",
              static_cast<double>(stats.score_cache_bytes +
                                  stats.encoding_cache_bytes +
                                  stats.gate_cache_bytes));
}

double ExpertMatMulGflops(const DatasetMeta& meta, const ModelDims& dims,
                          int64_t rows, MatMulPath path, double min_seconds) {
  // The AW-MoE expert bank input is the impression representation
  // v_imp: one hidden_dim slice per tower (query tower dropped in
  // recommendation mode), then dims.expert hidden layers and a scalar.
  std::vector<int64_t> widths = {(meta.recommendation_mode ? 3 : 4) *
                                 dims.hidden_dim()};
  widths.insert(widths.end(), dims.expert.begin(), dims.expert.end());
  widths.push_back(1);

  Rng rng(17);
  std::vector<Matrix> inputs;
  std::vector<Matrix> weights;
  std::vector<Matrix> outputs;
  double flops_per_pass = 0.0;
  for (size_t l = 0; l + 1 < widths.size(); ++l) {
    Matrix a(rows, widths[l]);
    Matrix w(widths[l], widths[l + 1]);
    for (int64_t k = 0; k < a.size(); ++k) a.data()[k] = rng.Uniform(-1, 1);
    for (int64_t k = 0; k < w.size(); ++k) w.data()[k] = rng.Uniform(-1, 1);
    inputs.push_back(std::move(a));
    weights.push_back(std::move(w));
    outputs.emplace_back(rows, widths[l + 1]);
    flops_per_pass += MatMulFlops(rows, widths[l], widths[l + 1]) *
                      static_cast<double>(dims.num_experts);
  }
  auto pass = [&] {
    for (int64_t e = 0; e < dims.num_experts; ++e) {
      for (size_t l = 0; l < weights.size(); ++l) {
        Matrix& out = outputs[l];
        if (path == MatMulPath::kInference) {
          MatMulInto(MatrixView(inputs[l]), weights[l],
                     MatView{out.data(), out.rows(), out.cols(), out.cols()});
        } else {
          out = MatMul(inputs[l], weights[l]);
        }
      }
    }
  };
  pass();  // Warm-up.
  int64_t passes = 0;
  const Clock::time_point start = Clock::now();
  double elapsed_s = 0.0;
  do {
    for (int i = 0; i < 16; ++i) pass();
    passes += 16;
    elapsed_s = MillisBetween(start, Clock::now()) / 1e3;
  } while (elapsed_s < min_seconds);
  return flops_per_pass * static_cast<double>(passes) / elapsed_s / 1e9;
}

}  // namespace perfbench
}  // namespace awmoe
