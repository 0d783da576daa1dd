#include "serving/async_queue.h"

#include <utility>

#include "util/check.h"

namespace awmoe {

namespace {

/// Resolves a promise with a scoreless failure response, preserving the
/// request identity so callers can still attribute the error.
void Reject(std::promise<RankResponse> promise, Status status,
            int64_t session_id, const std::string& model) {
  RankResponse response;
  response.status = std::move(status);
  response.session_id = session_id;
  response.model = model;
  promise.set_value(std::move(response));
}

}  // namespace

AsyncBatchQueue::AsyncBatchQueue(AsyncQueueOptions options, FlushFn flush)
    : options_(options), flush_(std::move(flush)) {
  AWMOE_CHECK(options_.max_batch_candidates > 0)
      << "max_batch_candidates " << options_.max_batch_candidates;
  AWMOE_CHECK(options_.num_flush_lanes >= 1)
      << "num_flush_lanes " << options_.num_flush_lanes;
  AWMOE_CHECK(flush_ != nullptr) << "AsyncBatchQueue: null flush callback";
  flushers_.reserve(static_cast<size_t>(options_.num_flush_lanes));
  for (int lane = 0; lane < options_.num_flush_lanes; ++lane) {
    flushers_.emplace_back([this] { FlusherLoop(); });
  }
}

AsyncBatchQueue::~AsyncBatchQueue() { Stop(/*drain=*/true); }

std::future<RankResponse> AsyncBatchQueue::Submit(
    RankRequest request, const std::string& resolved_model,
    const std::string& route_key, Status* sync_reject) {
  std::promise<RankResponse> promise;
  std::future<RankResponse> future = promise.get_future();
  if (sync_reject != nullptr) *sync_reject = Status::OK();
  auto reject = [&](Status status) {
    if (sync_reject != nullptr) *sync_reject = status;
    Reject(std::move(promise), std::move(status), request.session_id,
           resolved_model);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject(Status::Unavailable("Submit: serving engine is stopped"));
      return future;
    }
    if (options_.max_pending_requests > 0 &&
        pending_total_ >= options_.max_pending_requests) {
      reject(Status::ResourceExhausted(
          "Submit: async queue full (" + std::to_string(pending_total_) +
          " pending requests)"));
      return future;
    }
    ModelQueue& queue = queues_[route_key];
    if (queue.model.empty()) queue.model = resolved_model;
    ++pending_total_;
    Pending pending;
    pending.request = std::move(request);
    pending.promise = std::move(promise);
    pending.enqueued_at = std::chrono::steady_clock::now();
    queue.pending.push_back(std::move(pending));
  }
  // A free lane, if any, flushes it at once.
  cv_.notify_one();
  return future;
}

std::vector<AsyncBatchQueue::Pending> AsyncBatchQueue::PopBatchLocked(
    ModelQueue* queue) {
  std::vector<Pending> batch;
  int64_t items = 0;
  while (!queue->pending.empty()) {
    const int64_t next =
        static_cast<int64_t>(queue->pending.front().request.items.size());
    // Whole requests only; an oversized lone request still flushes.
    if (!batch.empty() && items + next > options_.max_batch_candidates) break;
    items += next;
    --pending_total_;
    batch.push_back(std::move(queue->pending.front()));
    queue->pending.pop_front();
  }
  return batch;
}

void AsyncBatchQueue::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Work-conserving: every non-empty queue is ready, and the one with
    // the OLDEST front request wins, so a busy route key cannot starve
    // another key's requests.
    ModelQueue* ready = nullptr;
    const std::string* ready_name = nullptr;
    auto ready_oldest = std::chrono::steady_clock::time_point::max();
    for (auto& [name, queue] : queues_) {
      if (queue.pending.empty()) continue;
      const auto oldest = queue.pending.front().enqueued_at;
      if (oldest < ready_oldest) {
        ready = &queue;
        ready_name = &name;
        ready_oldest = oldest;
      }
    }
    if (ready != nullptr) {
      const std::string route_key = *ready_name;
      std::vector<Pending> batch = PopBatchLocked(ready);
      lock.unlock();
      flush_(route_key, std::move(batch));  // Resolves every promise.
      lock.lock();
      continue;
    }
    if (stopping_) return;  // Nothing pending left to drain.
    cv_.wait(lock);
  }
}

void AsyncBatchQueue::Stop(bool drain) {
  // Paired with the queue's resolved model name (NOT the route key,
  // which may carry a rollout-arm prefix), so the failure response
  // keeps the "model is never empty" contract even for default-routed
  // requests.
  std::vector<std::pair<std::string, Pending>> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      if (!drain) {
        // Fail pending requests instead of scoring them; batches the
        // flusher already popped are in flight and still resolve with
        // scores.
        for (auto& [key, queue] : queues_) {
          for (Pending& pending : queue.pending) {
            abandoned.emplace_back(queue.model, std::move(pending));
          }
          queue.pending.clear();
        }
        pending_total_ = 0;
      }
    }
  }
  cv_.notify_all();
  for (auto& [model, pending] : abandoned) {
    Reject(std::move(pending.promise),
           Status::Unavailable(
               "Submit: serving engine stopped before this request was "
               "scored"),
           pending.request.session_id, model);
  }
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& flusher : flushers_) {
    if (flusher.joinable()) flusher.join();
  }
}

int64_t AsyncBatchQueue::pending_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_total_;
}

}  // namespace awmoe
