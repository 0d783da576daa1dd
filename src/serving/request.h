#ifndef AWMOE_SERVING_REQUEST_H_
#define AWMOE_SERVING_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/example.h"
#include "util/status.h"

namespace awmoe {

/// Which published snapshot of a model a request is served by during a
/// staged rollout: the stable (current production) version or the
/// candidate version being ramped. Outside a rollout only the stable
/// arm exists.
enum class RolloutArm { kStable = 0, kCandidate = 1 };

/// Per-request arm selection. The default routes through the engine's
/// `TrafficRouter` (deterministic sticky session-hash bucketing — see
/// serving/rollout.h); the force values pin the arm for diagnostics and
/// shadow reads. Forcing the candidate arm when no candidate is staged
/// serves the stable snapshot.
enum class ArmPolicy { kRouter = 0, kForceStable = 1, kForceCandidate = 2 };

/// One ranking request (Fig. 6 flow: query -> retrieve -> rank): the
/// candidate items retrieved for a single session, all sharing the same
/// user context and query. Items are not owned and must outlive the call.
struct RankRequest {
  int64_t session_id = 0;
  /// Registry name of the model to serve with; empty routes to the
  /// engine's default model. This is the A/B-test hook: the same engine
  /// instance serves every registered arm.
  std::string model;
  /// Staged-rollout arm selection (see ArmPolicy above).
  ArmPolicy arm_policy = ArmPolicy::kRouter;
  /// Latency budget in milliseconds, measured from submission. 0 = no
  /// deadline. A single engine ignores it; the sharded fleet's
  /// admission controller (serving/shard.h) SHEDS the request with
  /// kResourceExhausted when the target shard's estimated queue delay
  /// would already blow this budget — failing in microseconds instead
  /// of serving a response the caller has stopped waiting for.
  double deadline_ms = 0.0;
  std::vector<const Example*> items;
};

/// Scores for one request, aligned with `RankRequest::items`.
struct RankResponse {
  /// OK when `scores` is valid. Otherwise `scores` stays empty and the
  /// rest of the batch is served. Both fronts reject:
  ///  - an unknown model name -> kNotFound;
  ///  - an empty candidate list, a slate longer than a slate-scoring
  ///    model's max slate length, or a malformed candidate (see
  ///    ValidateRequest) -> kInvalidArgument.
  /// The async `Submit` front also fails a request when its queue is
  /// full (kResourceExhausted), when it is abandoned by an engine
  /// stopped without drain (kUnavailable), or when its batch's forward
  /// throws (kInternal).
  Status status;
  int64_t session_id = 0;
  /// Resolved model name (never empty).
  std::string model;
  /// Version of the model snapshot that scored this request (1 = as
  /// registered; incremented by each `ModelPool::UpdateModel`). All
  /// scores in one response come from exactly one snapshot: the version
  /// current when the request's micro-batch acquired its lease — for
  /// async requests that is flush time, so a Submit racing a hot swap
  /// may legitimately report the newer version, but never a mix.
  int64_t model_version = 0;
  /// Rollout arm that actually served this request: kCandidate only
  /// when a candidate snapshot was staged AND (the router or a force
  /// policy) sent the session there. A request routed at a candidate
  /// that was dropped (rolled back) before its lease was acquired
  /// reports kStable — the arm it was really served by.
  RolloutArm arm = RolloutArm::kStable;
  /// Replica lane the forward ran on (0-based; informational). -1 when
  /// the request was served entirely from the snapshot's level-1 score
  /// cache: no lane was leased and no forward pass ran.
  int replica = 0;
  /// Sigmoid probabilities, one per candidate item.
  std::vector<double> scores;
  /// Wall-clock from request submission to scores ready. On the async
  /// path this includes `queue_ms`; on the synchronous path it is
  /// measured from `RankBatch` entry.
  double latency_ms = 0.0;
  /// Time the request spent in the async micro-batch queue before its
  /// flush started (0 on the synchronous path).
  double queue_ms = 0.0;
  /// True when the §III-F shared-gate path served this request.
  bool gate_shared = false;
  /// True when the session's gate came from the engine's gate cache
  /// (repeat request for a session, e.g. pagination) without re-running
  /// the gate network.
  bool gate_cache_hit = false;
  /// True when the whole request was served from the level-1 session
  /// score cache (exact repeat of a scored candidate set, unchanged
  /// behaviour history): scores are the cached ones, bitwise-equal to
  /// recompute, and `replica` is -1.
  bool score_cache_hit = false;
  /// True when the session's candidate-independent behaviour encoding
  /// came from the level-2 session feature store, so the forward ran
  /// only the candidate-dependent tail.
  bool encoding_cache_hit = false;
};

/// Checks every candidate of `request` against `meta`, so that no
/// client input reaches a CHECK or an unchecked read in collation or in
/// an embedding gather. Each candidate must be non-null and have:
///  - ids inside the embedding tables EmbeddingSet sizes from `meta`:
///    items, cats (behaviour, target and query_cat), brands, shops,
///    queries (max(num_queries, 1)) and age segments
///    (num_age_segments + 1); negative ids are out of range too;
///  - behavior_cats and behavior_brands as long as behavior_items, and
///    behavior_attrs empty or kItemAttrs per behaviour;
///  - numeric exactly meta.numeric_dim wide;
///  - finite numeric, behaviour and target attribute values.
/// Returns kInvalidArgument naming the first offending candidate and
/// field.
Status ValidateRequest(const RankRequest& request, const DatasetMeta& meta);

/// Groups a flat labelled split into per-session impression lists.
/// Within-session impression order is preserved; sessions are ordered by
/// ascending session id. An empty split yields an empty list.
std::vector<std::vector<const Example*>> GroupBySession(
    const std::vector<Example>& examples);

/// Wraps per-session item lists into requests routed at `model` (empty =
/// engine default). Session ids are taken from the first item.
std::vector<RankRequest> MakeSessionRequests(
    const std::vector<std::vector<const Example*>>& sessions,
    const std::string& model = "");

}  // namespace awmoe

#endif  // AWMOE_SERVING_REQUEST_H_
