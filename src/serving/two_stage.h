#ifndef AWMOE_SERVING_TWO_STAGE_H_
#define AWMOE_SERVING_TWO_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serving/request.h"
#include "serving/serving_engine.h"
#include "util/status.h"

namespace awmoe {

struct TwoStageOptions {
  /// Stage-1 pointwise model (empty = engine default): scores the full
  /// candidate set independently, cheap per candidate.
  std::string retrieval_model;
  /// Stage-2 slate-scoring model (its Traits declare max_slate_items >
  /// 0): re-scores the top-K jointly through slate self-attention.
  std::string rerank_model;
  /// Slate size: how many stage-1 winners stage 2 re-scores. Must not
  /// exceed the reranker's max_slate_len.
  int64_t top_k = 25;
};

/// Outcome of one two-stage ranking (see docs/reranking.md).
struct TwoStageResult {
  /// Non-OK when either stage failed; the score vectors are then empty.
  Status status;

  /// Stage-1 scores, aligned with the request's items.
  std::vector<double> retrieval_scores;

  /// Indices into the request's items that formed the rerank slate, in
  /// SLATE POSITION ORDER: descending retrieval score, ties broken by
  /// ascending item index (stable). The reranker's position embedding
  /// therefore encodes the retrieval rank — position 0 is stage 1's
  /// top pick.
  std::vector<size_t> slate;

  /// Stage-2 scores, aligned with `slate`.
  std::vector<double> rerank_scores;

  /// Blended per-item scores aligned with the request's items — ready
  /// for EvaluateRanking. Slate members carry 1 + rerank score, the
  /// rest their retrieval score; both stages emit sigmoids in (0, 1),
  /// so every slate member outranks every non-member and within each
  /// group the stage's own order decides. Sorting these descending
  /// yields the final ranking.
  std::vector<double> final_scores;

  /// Item indices best-first (final_scores descending, ties by
  /// ascending index): the slate reranked, then the retrieval tail.
  std::vector<size_t> ranking;

  /// Per-stage wall-clock, each an end-to-end engine Rank call.
  double retrieve_ms = 0.0;
  double rerank_ms = 0.0;
};

/// The retrieve -> rerank pipeline composed from two models behind one
/// serving engine: a pointwise stage-1 model prunes the candidate set
/// to a top-K slate, and a listwise stage-2 model re-scores that slate
/// jointly (each candidate's score aware of what it competes with).
/// Both stages go through the engine's full serving stack — routing,
/// micro-batching, caching (stage 2 bypasses the score cache by the
/// slate contract), stats — so pipeline latency decomposes into two
/// measured Rank calls. Stateless and cheap to copy; thread-safe to
/// the extent the engine is.
class TwoStageRanker {
 public:
  /// `engine` is not owned and must outlive the ranker.
  TwoStageRanker(ServingEngine* engine, TwoStageOptions options);

  /// Runs both stages for one request. `request.model` is ignored (the
  /// options name the models); requests with at most `top_k` items
  /// still run both stages — the slate is then the whole candidate set
  /// reordered by retrieval score.
  TwoStageResult Rank(const RankRequest& request);

  const TwoStageOptions& options() const { return options_; }

 private:
  ServingEngine* engine_;
  TwoStageOptions options_;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_TWO_STAGE_H_
