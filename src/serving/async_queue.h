#ifndef AWMOE_SERVING_ASYNC_QUEUE_H_
#define AWMOE_SERVING_ASYNC_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serving/request.h"

namespace awmoe {

/// Flush policy of the async serving front (see ServingEngineOptions for
/// the user-facing knobs these are derived from).
struct AsyncQueueOptions {
  /// Candidate cap of one flush: a lane pops whole requests up to this
  /// many candidates. A single oversized request still flushes alone
  /// (requests are never split).
  int64_t max_batch_candidates = 256;

  /// Backpressure: when this many requests are already queued (across
  /// all models, not yet handed to a flush), Submit fails the returned
  /// future immediately with kResourceExhausted instead of queueing.
  /// 0 = unbounded.
  int64_t max_pending_requests = 0;

  /// Flusher threads (lanes). One lane caps a hot model at one
  /// in-flight micro-batch; with N lanes, N batches can flush
  /// concurrently and land on N distinct replica lanes of the model's
  /// snapshot. Sized to the pool's replica count by the engine.
  int num_flush_lanes = 1;
};

/// Work-conserving micro-batch queue behind `ServingEngine::Submit`: a
/// producer/consumer stage that hands queued requests (per route key)
/// to a flush callback on a small pool of flusher threads (lanes). A
/// free lane takes what is queued at once, so a lone request never
/// waits for company; requests that arrive while every lane is busy
/// coalesce into the next pop (adaptive batching, as in Clipper,
/// Crankshaw et al., NSDI 2017). The queue owns the promise side of
/// every accepted request; the flush callback must resolve every
/// `Pending` it is given (the engine scores the batch in one forward
/// pass and fills each caller's slice). Rejected and
/// abandoned requests are resolved by the queue itself with a non-OK
/// `RankResponse::status`, so a returned future ALWAYS becomes ready —
/// no code path leaks a promise.
///
/// Thread-safety: Submit may be called from any number of threads.
/// Stop/destruction may race with Submit; a Submit that loses the race
/// resolves with kUnavailable. The flush callback runs on flusher
/// threads only, never under the queue lock, so it may block on replica
/// locks freely; with `num_flush_lanes > 1` it must itself be
/// thread-safe, since two lanes can flush (even for the same model)
/// concurrently.
class AsyncBatchQueue {
 public:
  /// One accepted request in flight: the caller's request, the promise
  /// its future came from, and when it entered the queue (for the
  /// queue-delay metric and the oldest-front-first pick).
  struct Pending {
    RankRequest request;
    std::promise<RankResponse> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Receives one micro-batch — all requests share `route_key`, the
  /// opaque grouping key the caller submitted them under (for the
  /// engine: one resolved model name + one rollout arm, see
  /// EncodeRouteKey in serving/rollout.h) — and must resolve every
  /// promise in it.
  using FlushFn = std::function<void(const std::string& route_key,
                                     std::vector<Pending> batch)>;

  AsyncBatchQueue(AsyncQueueOptions options, FlushFn flush);

  /// Stops with drain=true: pending requests are still scored.
  ~AsyncBatchQueue();

  AsyncBatchQueue(const AsyncBatchQueue&) = delete;
  AsyncBatchQueue& operator=(const AsyncBatchQueue&) = delete;

  /// Enqueues a request routed at `resolved_model` (a concrete registry
  /// name; the caller resolves the default route) under `route_key`:
  /// requests sharing a key coalesce into one flush. The key defaults
  /// to the model name; the engine passes a (model, rollout arm) key so
  /// the two arms of a staged rollout never share a forward pass.
  /// Failure responses always report `resolved_model`, never the key.
  /// Returns a future that resolves when the request's micro-batch has
  /// been scored — or immediately with a non-OK status when the request
  /// is rejected (queue full, queue stopped). Request validation is the
  /// caller's: the engine admits a request before it reaches the queue.
  /// When `sync_reject` is non-null it receives that immediate-reject
  /// status (OK when the request was accepted), so the caller can
  /// attribute the reject — e.g. to a rollout arm's health window —
  /// without consuming the future.
  std::future<RankResponse> Submit(RankRequest request,
                                   const std::string& resolved_model,
                                   const std::string& route_key,
                                   Status* sync_reject = nullptr);

  /// Stops accepting new requests and joins every flusher lane.
  /// drain=true flushes (scores) everything still queued; drain=false
  /// resolves pending requests with kUnavailable instead. Idempotent;
  /// the first call's drain mode wins.
  void Stop(bool drain);

  /// Requests currently queued (accepted, flush not started). Intended
  /// for tests and load probes; the value is stale by the time the
  /// caller reads it.
  int64_t pending_requests() const;

 private:
  struct ModelQueue {
    /// Display name for failure responses (the resolved model of the
    /// first request submitted under this key; keys map 1:1 to models).
    std::string model;
    std::deque<Pending> pending;
  };

  /// Pops up to max_batch_candidates items of whole requests (at least
  /// one request) from `queue`. Caller holds mu_.
  std::vector<Pending> PopBatchLocked(ModelQueue* queue);

  void FlusherLoop();

  const AsyncQueueOptions options_;
  const FlushFn flush_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, ModelQueue> queues_;
  int64_t pending_total_ = 0;
  bool stopping_ = false;

  // Serialises the join so concurrent Stop calls (e.g. an explicit Stop
  // racing the destructor) cannot both join a flusher lane.
  std::mutex join_mu_;
  std::vector<std::thread> flushers_;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_ASYNC_QUEUE_H_
