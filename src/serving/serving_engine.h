#ifndef AWMOE_SERVING_SERVING_ENGINE_H_
#define AWMOE_SERVING_SERVING_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serving/async_queue.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/rollout.h"
#include "serving/serving_stats.h"

namespace awmoe {

struct ServingEngineOptions {
  /// Micro-batching cap: candidates from multiple sessions are fused
  /// into one forward pass until adding the next whole session would
  /// exceed this many items (a session is never split, so one oversized
  /// session still forms a batch on its own).
  int64_t max_batch_items = 256;

  /// Lanes micro-batches are dispatched across: n-1 worker threads plus
  /// the calling thread, which work-shares instead of blocking. 0 or 1
  /// runs everything in the caller's thread. A micro-batch runs on one
  /// replica lane of its model's snapshot, so with a replicated pool
  /// threads pay off even on a single hot model (N forwards on N
  /// distinct ranker clones); on a single-replica pool they pay off
  /// across *different* models, as before.
  int num_threads = 0;

  /// Enables the §III-F per-session gate path for models that support
  /// it (gate evaluated once per session, reused for every candidate).
  bool share_gate = true;

  /// Per-snapshot LRU capacity of cached session gate rows; a repeat
  /// request for a cached session skips the gate network entirely
  /// (generalising §III-F across requests, e.g. result pagination).
  /// Entries are validated against a hash of the gate-relevant context
  /// (behaviour sequence, query, user), so a session whose behaviour
  /// sequence grew between requests is re-probed, never served stale.
  /// The cache lives in the model snapshot, so a published weight
  /// update starts cold by construction. 0 disables caching (the gate
  /// is still shared within a request).
  int64_t gate_cache_capacity = 4096;

  // --- Two-level result/feature caching (snapshot-scoped). ---

  /// Per-snapshot LRU capacity of the LEVEL-1 session score cache: an
  /// exact repeat request — same session, same candidate set (order-
  /// insensitive), unchanged behaviour history — is served straight
  /// from cached scores without collating a batch or leasing a replica
  /// lane (`RankResponse::replica` is -1). Invalidated per session the
  /// moment the session's history hash changes, and retired wholesale
  /// with its snapshot on hot swap. 0 disables.
  int64_t score_cache_capacity = 4096;

  /// Enables the LEVEL-2 session feature store for models whose traits
  /// declare share_encoding: the candidate-independent behaviour-
  /// sequence encoding (EncodeSessionInto) is computed once per session
  /// and the forward runs only the candidate-dependent tail (Score with
  /// the encoding) — bitwise-identical to the fused path.
  bool share_session_encoding = true;

  /// Per-snapshot LRU capacity of the level-2 feature store (cached
  /// EncodeSessionInto rows, validated under the same GateContextHash
  /// stamp as gate rows). 0 disables cross-request reuse; the encoding
  /// is still computed once per session within a request.
  int64_t encoding_cache_capacity = 4096;

  // --- Async front (Submit) knobs. ---

  /// Candidate cap that flushes the async micro-batch queue: once a
  /// model's queued requests total this many candidates, they are
  /// coalesced into one forward pass. 0 inherits `max_batch_items`, so
  /// the async and synchronous paths batch to the same size by default.
  int64_t max_batch_candidates = 0;

  /// Time bound of the async queue: a queued request is flushed at most
  /// this long after it was submitted even if the candidate cap was not
  /// reached. This is the latency a lone request trades for the chance
  /// to be coalesced with concurrent traffic.
  double max_queue_delay_ms = 2.0;

  /// Backpressure: when this many requests are already queued (not yet
  /// flushed), further Submits fail immediately with
  /// kResourceExhausted instead of queueing. 0 = unbounded.
  int64_t max_pending_requests = 0;

  /// Flusher threads of the async front. One lane caps a hot model at
  /// one in-flight micro-batch; with N lanes (and N pool replicas), N
  /// micro-batches flush concurrently onto N distinct replica lanes.
  /// 0 = one lane per pool replica.
  int async_flush_lanes = 0;
};

/// The serving platform of Fig. 6: accepts RankRequests, routes each to
/// a named model in the ModelPool, fuses candidates from multiple
/// sessions into micro-batches, runs the §III-F shared-gate fast path
/// behind the API (instead of a constructor flag), and records exact
/// latency percentiles. Every forward runs under a snapshot+replica
/// lease: the engine pins the model version it started with (hot swaps
/// via `ModelPool::UpdateModel` never tear a response) and concurrent
/// forwards for one model spread across its replica lanes. Scores are
/// bitwise-identical to scoring each session alone on a single-replica
/// pool: collation pads to the dataset's fixed sequence length, every
/// kernel is row-wise, and replicas are exact weight clones, so neither
/// batch composition nor lane assignment can change a row's result.
class ServingEngine {
 public:
  /// `pool` is not owned and must outlive the engine.
  explicit ServingEngine(ModelPool* pool, ServingEngineOptions options = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Scores one request (convenience wrapper over RankBatch).
  RankResponse Rank(const RankRequest& request);

  /// Scores a set of requests, micro-batching across sessions per model
  /// and dispatching micro-batches over the worker pool. Responses are
  /// returned in request order. Request latency is measured from call
  /// entry to that request's micro-batch completing, so queueing behind
  /// other micro-batches shows up in the percentiles. A request that
  /// fails admission (empty candidate list, or more candidates than its
  /// route model's max slate length) gets kInvalidArgument and no
  /// scores; the rest of the batch is served normally.
  std::vector<RankResponse> RankBatch(
      const std::vector<RankRequest>& requests);

  /// Non-blocking front: enqueues the request into a per-model,
  /// time-bounded micro-batch queue and returns immediately. Background
  /// flusher lanes coalesce queued requests — including requests from
  /// different sessions submitted by different threads — into one
  /// forward pass once `max_batch_candidates` accumulate or the oldest
  /// request has waited `max_queue_delay_ms`, then resolve each
  /// caller's future with its own slice of the scores. Scores are
  /// bitwise-identical to the synchronous path. The future ALWAYS
  /// becomes ready: rejected requests (queue full, empty candidate
  /// list, slate longer than a slate-scoring model's max slate length,
  /// stopped engine) resolve immediately with a non-OK
  /// `RankResponse::status` and no scores.
  ///
  /// The candidate `Example`s must stay alive until the future
  /// resolves; the `RankRequest` itself is moved into the queue.
  std::future<RankResponse> Submit(RankRequest request);

  /// Stops the async front: no further Submits are accepted. With
  /// drain=true (the default, also what the destructor does) requests
  /// still queued are scored and their futures resolve normally; with
  /// drain=false they resolve immediately with kUnavailable. Blocks
  /// until the flusher lanes have exited; never deadlocks on in-flight
  /// futures and never leaves a promise unresolved. Idempotent, and a
  /// no-op when Submit was never called. Synchronous Rank/RankBatch
  /// remain usable after Stop.
  void Stop(bool drain = true);

  /// True when requests routed at `model` (empty = default) take the
  /// §III-F shared-gate path under the model's CURRENT stable snapshot.
  bool GateSharingActive(const std::string& model = std::string()) const;

  /// The engine's staged-rollout traffic splitter. Both serving paths
  /// (RankBatch and Submit) consult it per request: sessions bucketed
  /// onto the candidate arm are scored by the pool's staged candidate
  /// snapshot, everyone else by stable. With no split configured (the
  /// default) every request serves stable at the cost of one relaxed
  /// atomic load. Ramps are orchestrated by a RolloutController wired
  /// to this router (see serving/rollout.h).
  TrafficRouter* router() { return &router_; }
  const TrafficRouter& router() const { return router_; }

  const ServingStats& stats() const { return stats_; }
  /// Mutable stats access for out-of-band recorders — e.g. the retrain
  /// driver's shadow-scoring loop attributing drift samples to the arm
  /// versions it just scored (train/retrain_driver.h).
  ServingStats& stats() { return stats_; }
  /// Counter snapshot; `model_swaps` is merged in from the pool.
  ServingStatsSnapshot Stats() const;
  void ResetStats() { stats_.Reset(); }

  /// Requests sitting in the async Submit queue right now (0 when the
  /// async front was never started). This is the live load signal the
  /// fleet's admission controller (serving/shard.h) polls per decision:
  /// pending x mean service time / flush lanes estimates the queue
  /// delay a new Submit would inherit.
  int64_t pending_async_requests() const;

  const ServingEngineOptions& options() const { return options_; }
  const ModelPool& pool() const { return *pool_; }

 private:
  /// One fused forward pass: whole sessions, one model, one rollout arm.
  struct MicroBatch {
    std::string model;  // Resolved pool name.
    /// Arm the router assigned: every request in a micro-batch shares
    /// it, so the whole forward runs on one snapshot.
    RolloutArm arm = RolloutArm::kStable;
    std::vector<size_t> request_indices;
    int64_t total_items = 0;
  };

  /// The arm a request is served by: its ArmPolicy override, or the
  /// router's sticky session bucket.
  RolloutArm RouteArm(const std::string& resolved,
                      const RankRequest& request) const;

  /// The single admission check, shared by RankBatch, Submit and the
  /// pinned-snapshot backstop in ExecuteMicroBatch: kInvalidArgument for
  /// an empty candidate list or a slate longer than `snapshot`'s
  /// max_slate_items. Client errors, so the process never aborts on them.
  static Status Admit(const RankRequest& request,
                      const ModelSnapshot& snapshot);

  /// Scores one micro-batch under a snapshot+replica lease and fills
  /// the matching responses. `queue_delays_ms`, when non-null, is
  /// indexed like `requests` and holds the time each request spent in
  /// the async queue; it is added to the reported latency and recorded
  /// as the queue-delay metric.
  void ExecuteMicroBatch(const MicroBatch& micro,
                         const std::vector<RankRequest>& requests,
                         const std::vector<double>* queue_delays_ms,
                         const Stopwatch& service_watch,
                         std::vector<RankResponse>* responses);

  /// Flush callback of the async queue: scores one coalesced batch
  /// (all grouped under `route_key` = one resolved model + one rollout
  /// arm) in one forward pass and resolves every promise. Runs
  /// concurrently on several flusher lanes, each landing on its own
  /// replica.
  void FlushAsync(const std::string& route_key,
                  std::vector<AsyncBatchQueue::Pending> batch);

  /// Blocks until every job has run; uses the worker threads when
  /// configured, the caller's thread otherwise.
  void RunJobs(std::vector<std::function<void()>> jobs);

  ModelPool* pool_;
  ServingEngineOptions options_;
  ServingStats stats_;
  TrafficRouter router_;

  // Worker pool (created only when num_threads > 1).
  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::vector<std::function<void()>> queue_;
  bool stopping_ = false;

  // Async front: created lazily on the first Submit (engines used only
  // synchronously never start flusher lanes). The queue object, once
  // created, lives until engine destruction — Stop() stops it in place,
  // so a Submit racing Stop finds a live queue that rejects it.
  mutable std::mutex async_mu_;
  std::unique_ptr<AsyncBatchQueue> async_queue_;
  bool async_stopped_ = false;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_SERVING_ENGINE_H_
