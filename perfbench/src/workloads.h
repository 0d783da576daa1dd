#ifndef AWMOE_PERFBENCH_WORKLOADS_H_
#define AWMOE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/batcher.h"
#include "data/example.h"
#include "harness.h"
#include "models/model_dims.h"
#include "serving/serving_stats.h"

namespace awmoe {

class Ranker;

namespace perfbench {

/// The four workloads (see perfbench/README.md for why each exists).
/// Each builds its system through public APIs only, measures for
/// `config.seconds`, verifies its outputs and fills `RunResult`.
RunResult RunSearchFresh(const RunConfig& config);
RunResult RunPagingRepeat(const RunConfig& config);
RunResult RunRerankTwoStage(const RunConfig& config);
RunResult RunTrainEpoch(const RunConfig& config);

// --- Layer replay shared by the serving workloads (replay.cc). ---

/// Per-layer timings of one replay of requests through the layer entry
/// points a ServingEngine forward calls: CollateBatch, a ModelPool
/// lease, then GateInto / EncodeSessionInto / ScoreWithSessionInto (a
/// pointwise model) or ScoreSlateInto (a slate model), then the
/// sigmoid; plus, for a pointwise model, the fused ScoreInto on the
/// same batch. Units the replayed model never reaches read 0.
struct LayerReplay {
  double collate_us_per_row = 0.0;
  double lease_us = 0.0;  // Per request.
  double gate_us_per_session = 0.0;
  double encode_us_per_session = 0.0;
  double tail_us_per_row = 0.0;
  double slate_us_per_slate = 0.0;
  double sigmoid_us_per_row = 0.0;
  double score_us_per_row = 0.0;
  /// Median wall time of one replayed request (collate .. sigmoid):
  /// the sum of its spans' self times.
  double request_p50_ms = 0.0;
  /// (traced - untraced) / untraced wall time of the whole replay, %.
  double overhead_pct = 0.0;
};

/// Replays `requests` (each one session's item list, or one slate)
/// through a private single-replica pool holding a clone of `model`.
/// Runs the replay untraced and traced `rounds` times each and keeps
/// the fastest round of each; the spans of the kept traced round are
/// written to `trace_out` when non-empty.
LayerReplay ReplayRequests(const Ranker& model, const DatasetMeta& meta,
                           const Standardizer* standardizer,
                           const std::vector<std::vector<const Example*>>&
                               requests,
                           int rounds, const std::string& trace_out);

/// Sets the per-layer metrics read from an engine's (or a fleet's
/// merged) public stats: micro-batch means, the three cache hit ratios
/// and the resident cache bytes.
void SetServingStatsMetrics(const ServingStatsSnapshot& stats,
                            RunResult* result);

/// The matmul a layer metric times: the active-tier nn MatMulInto of
/// the serving forward, or the scalar mat MatMul of the autograd path.
enum class MatMulPath { kInference, kAutograd };

/// Achieved GFLOP/s of `path`'s matmul over the AW-MoE expert layer
/// shapes of `dims` (all experts) at `rows` rows.
double ExpertMatMulGflops(const DatasetMeta& meta, const ModelDims& dims,
                          int64_t rows, MatMulPath path, double min_seconds);

}  // namespace perfbench
}  // namespace awmoe

#endif  // AWMOE_PERFBENCH_WORKLOADS_H_
