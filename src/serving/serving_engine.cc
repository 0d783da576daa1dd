#include "serving/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "data/batcher.h"
#include "models/ranker.h"
#include "nn/inference.h"
#include "util/check.h"
#include "util/hash.h"

namespace awmoe {

namespace {

/// The probe forward of a session-row stage: Ranker::GateInto or
/// Ranker::EncodeSessionInto (one row per probe example).
using SessionProbe = void (Ranker::*)(const Batch&, InferenceWorkspace*,
                                      std::span<float>);

/// What both session-row stages of one micro-batch share: the miss
/// requests in collation order, their context hashes, and the leased
/// lane's model and workspace.
struct SessionRowInputs {
  const std::vector<const RankRequest*>& requests;
  const std::vector<uint64_t>& context_hash;
  const DatasetMeta& meta;
  const Standardizer* standardizer;
  Ranker& model;
  InferenceWorkspace& workspace;
  int64_t batch_rows;  // Candidates over all `requests`.
};

/// §III-F behind the API, for one kind of session-constant row — the
/// gate, or the level-2 behaviour-sequence encoding. Each request's row
/// comes from `cache` when the session was served before under the same
/// context hash; every other row comes from ONE fused `probe` forward
/// with one probe example per distinct (session id, context hash) —
/// not per session id alone, so two same-session requests with
/// different inputs in one micro-batch each get their own probe,
/// mirroring the cache's staleness check. Fresh rows fill the cache,
/// then each request's row is replicated across its candidates into
/// staging slot `rows_slot`, which is returned (batch_rows x width).
/// `lookup[k]` receives request k's cache outcome in RequestSample
/// encoding (1 hit, 2 stale, 0 miss or caching off). Caller holds the
/// lane lock.
std::span<const float> RunSessionRowStage(
    const SessionRowInputs& in, int64_t width, SessionGateCache& cache,
    int64_t capacity, InferenceWorkspace::StagingSlot probe_slot,
    InferenceWorkspace::StagingSlot rows_slot, SessionProbe probe,
    std::vector<int>& lookup) {
  const size_t m = in.requests.size();
  std::vector<std::vector<float>> cached(m);
  std::map<std::pair<int64_t, uint64_t>, size_t> probe_row;
  std::vector<const Example*> probes;
  for (size_t k = 0; k < m; ++k) {
    const RankRequest& request = *in.requests[k];
    const CacheLookup outcome =
        capacity > 0 ? cache.Lookup(request.session_id, in.context_hash[k],
                                    &cached[k])
                     : CacheLookup::kMiss;
    lookup[k] = outcome == CacheLookup::kHit    ? 1
                : outcome == CacheLookup::kStale ? 2
                                                 : 0;
    if (outcome == CacheLookup::kHit) continue;
    auto [slot, inserted] = probe_row.try_emplace(
        {request.session_id, in.context_hash[k]}, probes.size());
    if (inserted) probes.push_back(request.items[0]);
  }
  std::span<float> fresh;
  if (!probes.empty()) {
    Batch probe_batch = CollateBatch(probes, in.meta, in.standardizer);
    fresh = in.workspace.Staging(probe_slot, probe_batch.size * width);
    (in.model.*probe)(probe_batch, &in.workspace, fresh);
    if (capacity > 0) {
      for (const auto& [key, row] : probe_row) {
        const float* src = fresh.data() + row * width;
        cache.Put(key.first, key.second,
                  std::vector<float>(src, src + width), capacity);
      }
    }
  }
  std::span<float> rows = in.workspace.Staging(rows_slot,
                                               in.batch_rows * width);
  float* dst = rows.data();
  for (size_t k = 0; k < m; ++k) {
    const RankRequest& request = *in.requests[k];
    const float* src =
        lookup[k] == 1
            ? cached[k].data()
            : fresh.data() +
                  probe_row.at({request.session_id, in.context_hash[k]}) *
                      width;
    for (size_t j = 0; j < request.items.size(); ++j, dst += width) {
      std::copy(src, src + width, dst);
    }
  }
  return rows;
}

/// The response of a request refused at admission: identical on every
/// path (RankBatch, Submit, the pinned-snapshot backstop) — no scores,
/// no lane.
RankResponse RejectedResponse(const RankRequest& request,
                              const ModelSnapshot& snapshot, RolloutArm arm,
                              Status status) {
  RankResponse response;
  response.status = std::move(status);
  response.session_id = request.session_id;
  response.model = snapshot.name();
  response.model_version = snapshot.version();
  response.arm = arm;
  response.replica = -1;
  return response;
}

/// The answer to a request naming no registered model (or an empty name
/// with no default): a client error on that one request, so no snapshot,
/// lane or health sample is involved.
RankResponse UnknownModelResponse(const RankRequest& request) {
  RankResponse response;
  response.status = Status::NotFound(
      request.model.empty() ? std::string("Rank: no default model")
                            : "Rank: unknown model '" + request.model + "'");
  response.session_id = request.session_id;
  response.model = request.model;
  response.replica = -1;
  return response;
}

std::future<RankResponse> ReadyFuture(RankResponse response) {
  std::promise<RankResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

ServingEngine::ServingEngine(ModelPool* pool, ServingEngineOptions options)
    : pool_(pool), options_(options) {
  AWMOE_CHECK(pool_ != nullptr) << "ServingEngine: null pool";
  AWMOE_CHECK(options_.max_batch_items > 0)
      << "max_batch_items " << options_.max_batch_items;
  AWMOE_CHECK(options_.max_batch_candidates >= 0)
      << "max_batch_candidates " << options_.max_batch_candidates;
  AWMOE_CHECK(options_.max_pending_requests >= 0)
      << "max_pending_requests " << options_.max_pending_requests;
  AWMOE_CHECK(options_.async_flush_lanes >= 0)
      << "async_flush_lanes " << options_.async_flush_lanes;
  for (int t = 1; t < options_.num_threads; ++t) {
    workers_.emplace_back([this] {
      for (;;) {
        std::function<void()> job;
        {
          std::unique_lock<std::mutex> lock(queue_mu_);
          queue_cv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
          if (queue_.empty()) {
            if (stopping_) return;
            continue;
          }
          job = std::move(queue_.back());
          queue_.pop_back();
        }
        job();
      }
    });
  }
}

ServingEngine::~ServingEngine() {
  // Drain the async front first: its flusher lanes score pending
  // batches through pool snapshots, which must still be reachable.
  Stop(/*drain=*/true);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ServingEngine::GateSharingActive(const std::string& model) const {
  // Ask the CURRENT snapshot: eligibility is re-evaluated on every hot
  // swap, so a published model change (e.g. to a non-AW-MoE ranker)
  // changes the answer here and the path Rank actually takes together.
  std::shared_ptr<const ModelSnapshot> snapshot =
      pool_->CurrentSnapshot(pool_->ResolveName(model));
  return options_.share_gate && snapshot->traits().share_gate;
}

ServingStatsSnapshot ServingEngine::Stats() const {
  ServingStatsSnapshot snap = stats_.Snapshot();
  snap.model_swaps = pool_->swap_count();
  // Live cache occupancy comes from the pool at snapshot time (gauges,
  // not counters): retired snapshots drop out the moment they free.
  const CacheUsage usage = pool_->TotalCacheUsage();
  snap.score_cache_entries += usage.score_entries;
  snap.score_cache_bytes += usage.score_bytes;
  snap.encoding_cache_entries += usage.encoding_entries;
  snap.encoding_cache_bytes += usage.encoding_bytes;
  snap.gate_cache_entries += usage.gate_entries;
  snap.gate_cache_bytes += usage.gate_bytes;
  return snap;
}

RolloutArm ServingEngine::RouteArm(const std::string& resolved,
                                   const RankRequest& request) const {
  switch (request.arm_policy) {
    case ArmPolicy::kForceStable:
      return RolloutArm::kStable;
    case ArmPolicy::kForceCandidate:
      return RolloutArm::kCandidate;
    case ArmPolicy::kRouter:
      break;
  }
  return router_.Route(resolved, request.session_id);
}

Status ServingEngine::Admit(const RankRequest& request,
                            const ModelSnapshot& snapshot) const {
  Status status = AdmitToSnapshot(request, snapshot);
  if (status.ok()) status = ValidateRequest(request, pool_->meta());
  return status;
}

Status ServingEngine::AdmitToSnapshot(const RankRequest& request,
                                      const ModelSnapshot& snapshot) {
  const int64_t items = static_cast<int64_t>(request.items.size());
  if (items == 0) {
    return Status::InvalidArgument("Rank: empty candidate list for session " +
                                   std::to_string(request.session_id));
  }
  // Retrieval sets larger than a listwise model's position table are
  // ordinary client input; they must never reach the slate forward.
  const int64_t max_slate = snapshot.traits().max_slate_items;  // 0: none.
  if (max_slate > 0 && items > max_slate) {
    return Status::InvalidArgument(
        "Rank: slate of " + std::to_string(items) +
        " candidates exceeds model '" + snapshot.name() +
        "' max slate length " + std::to_string(max_slate));
  }
  return Status::OK();
}

void ServingEngine::ExecuteMicroBatch(const MicroBatch& micro,
                                      const std::vector<RankRequest>& requests,
                                      const std::vector<double>* queue_delays_ms,
                                      const Stopwatch& service_watch,
                                      std::vector<RankResponse>* responses) {
  const DatasetMeta& meta = pool_->meta();
  const size_t n = micro.request_indices.size();

  // Pin the snapshot FIRST, without a lane: the version cannot change
  // under us (hot swaps publish a NEW snapshot), and a micro-batch
  // fully served from the level-1 score cache below never leases a
  // replica lane at all. The arm picks between the stable and staged-
  // candidate snapshots; a candidate dropped since routing falls back
  // to stable (`granted` reports what was actually served).
  RolloutArm granted = micro.arm;
  std::shared_ptr<const ModelSnapshot> snapshot_ptr =
      pool_->SnapshotForArm(micro.model, micro.arm, &granted);
  const ModelSnapshot& snapshot = *snapshot_ptr;

  // --- Level 1: session score cache. An exact repeat request (same
  // session, same candidate set, unchanged behaviour history) takes its
  // scores straight from the snapshot's cache; only the rest is
  // collated and scored. Per-element CandidateScoreHash verification
  // inside Lookup makes a set-hash collision a miss, never a wrong
  // score.
  // A slate-scoring model ranks each request's rows JOINTLY, so its
  // level-1 cache entries would be wrong to reuse: a cached score was
  // computed against one particular slate, and serving it to a repeat
  // request would freeze the candidate's context. Bypass the cache
  // entirely (no lookups, no puts) and score every request fresh.
  const ServingTraits& traits = snapshot.traits();
  const bool slate = traits.slate_scoring();
  const bool score_cache_on = options_.score_cache_capacity > 0 && !slate;

  // Admission backstop against the PINNED snapshot. RankBatch and
  // Submit already admitted each request against the snapshot current
  // at admission time; a hot swap to a model with a smaller slate cap
  // between admission and this lease still lands here. An oversized
  // slate must never reach the slate forward, whose slate-length CHECK
  // treats it as a programmer error and aborts. ValidateRequest is not
  // repeated: it reads only the pool's meta, which no swap changes.
  std::vector<Status> admission;
  admission.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    admission.push_back(
        AdmitToSnapshot(requests[micro.request_indices[i]], snapshot));
  }
  std::vector<int> score_lookup(n, -1);  // RequestSample encoding.
  std::vector<uint64_t> history_hash(n, 0);
  std::vector<uint64_t> set_hash(n, 0);
  std::vector<std::vector<uint64_t>> item_hashes(n);
  std::vector<std::vector<float>> hit_scores(n);
  if (score_cache_on) {
    SessionScoreCache& cache = snapshot.score_cache();
    for (size_t i = 0; i < n; ++i) {
      if (!admission[i].ok()) continue;
      const RankRequest& request = requests[micro.request_indices[i]];
      history_hash[i] = SessionHistoryHash(*request.items[0]);
      std::vector<uint64_t>& hashes = item_hashes[i];
      hashes.reserve(request.items.size());
      uint64_t set = 0;
      for (const Example* item : request.items) {
        const uint64_t h = CandidateScoreHash(*item);
        hashes.push_back(h);
        set = SetHashAdd(set, h);
      }
      set_hash[i] = set;
      hit_scores[i].resize(request.items.size());
      const CacheLookup outcome =
          cache.Lookup(request.session_id, set, history_hash[i], hashes,
                       hit_scores[i]);
      score_lookup[i] = outcome == CacheLookup::kHit    ? 1
                        : outcome == CacheLookup::kStale ? 2
                                                         : 0;
    }
  }
  std::vector<size_t> miss;  // Positions in [0, n) that need compute.
  miss.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (score_lookup[i] != 1 && admission[i].ok()) miss.push_back(i);
  }

  // Gate/encoding sharing is a pointwise-path optimisation; a slate
  // model's traits declare neither, so its forward takes neither.
  const bool shared = options_.share_gate && traits.share_gate;
  const bool encode =
      options_.share_session_encoding && traits.share_encoding;
  // Per miss request: gate / encoding cache outcome of the session-row
  // stages (RequestSample encoding; -1 when the stage did not run).
  std::vector<int> gate_lookup(miss.size(), -1);
  std::vector<int> encoding_lookup(miss.size(), -1);
  // Logits of the MISS portion land here straight from the model — the
  // whole forward is allocation-free against the lane's workspace; only
  // this engine-side collation layer still allocates (batch, response
  // buffers). logits_row[k] is miss request k's first row.
  std::vector<float> logits;
  std::vector<int64_t> logits_row(miss.size(), 0);
  SnapshotLease lease;
  int64_t miss_items = 0;

  if (!miss.empty()) {
    // Real compute remains: NOW lease a replica lane.
    lease = pool_->LeaseLane(snapshot_ptr, granted);
    ReplicaLane& lane = lease.lane();
    const size_t m = miss.size();

    std::vector<const RankRequest*> miss_requests(m);
    std::vector<const Example*> items;
    items.reserve(static_cast<size_t>(micro.total_items));
    for (size_t k = 0; k < m; ++k) {
      const RankRequest& request = requests[micro.request_indices[miss[k]]];
      miss_requests[k] = &request;
      logits_row[k] = static_cast<int64_t>(items.size());
      items.insert(items.end(), request.items.begin(), request.items.end());
    }
    miss_items = static_cast<int64_t>(items.size());
    Batch batch = CollateBatch(items, meta, pool_->standardizer());
    logits.resize(static_cast<size_t>(batch.size));
    const std::span<float> logits_span(logits);
    // Workspaces are sized to the engine's batching caps once, so a
    // lane serves every later micro-batch (sync or async) without
    // regrowing.
    const int64_t workspace_candidates =
        std::max({options_.max_batch_items, options_.max_batch_candidates,
                  batch.size});

    // One context hash per miss request: the validity stamp shared by
    // the gate cache AND the level-2 session feature store (the
    // encoding reads a subset of the gate's inputs).
    std::vector<uint64_t> request_hash(m, 0);
    if (shared || encode) {
      for (size_t k = 0; k < m; ++k) {
        request_hash[k] = GateContextHash(*miss_requests[k]->items[0]);
      }
    }

    double rerank_ms = 0.0;  // Slate-stage latency (slate models only).
    {
      // One lane critical section for probes + main forward: all touch
      // this replica's model state and workspace. Other replicas of the
      // same snapshot run their own micro-batches concurrently.
      std::lock_guard<std::mutex> lock(lane.mu);
      // Started AFTER the lock is held: the rerank histogram samples
      // the lane critical section as documented, so lock-wait behind a
      // contended replica shows up in request latency, not in the
      // rerank-stage percentiles.
      const Stopwatch rerank_watch;
      InferenceWorkspace* workspace =
          lane.EnsureWorkspace(workspace_candidates);
      // The session-row stage, once for the gate and once for the
      // level-2 encoding; then one Score call runs the forward with
      // whichever inputs apply (a null gate or encoding degrades to the
      // respective fused path).
      const SessionRowInputs rows_in{miss_requests, request_hash, meta,
                                     pool_->standardizer(), *lane.model,
                                     *workspace, batch.size};
      SessionGate gate;
      if (shared) {
        const int64_t width = traits.gate_width;
        gate = SessionGate{
            RunSessionRowStage(rows_in, width, snapshot.gate_cache(),
                               options_.gate_cache_capacity,
                               InferenceWorkspace::kGateProbe,
                               InferenceWorkspace::kGateRows,
                               &Ranker::GateInto, gate_lookup)
                .data(),
            batch.size, width};
      }
      SessionEncoding encoding;
      if (encode) {
        const int64_t width = traits.encoding_width;
        encoding = SessionEncoding{
            RunSessionRowStage(rows_in, width, snapshot.encoding_cache(),
                               options_.encoding_cache_capacity,
                               InferenceWorkspace::kSessionProbe,
                               InferenceWorkspace::kSessionRows,
                               &Ranker::EncodeSessionInto, encoding_lookup)
                .data(),
            batch.size, width};
      }
      // For a slate model: collation inserted each request's items as
      // one contiguous block, so logits_row IS the slate-starts vector:
      // one slate per request, whole and in request order. The request
      // is the atomicity unit — a micro-batch may carry many requests,
      // but no request's rows are ever split across forwards or
      // interleaved with another's, so every candidate attends over
      // exactly its own slate regardless of batch composition.
      lane.model->Score(
          {.batch = batch,
           .workspace = workspace,
           .out = logits_span,
           .gate = shared ? &gate : nullptr,
           .encoding = encode ? &encoding : nullptr,
           .slate_starts = slate ? std::span<const int64_t>(logits_row)
                                 : std::span<const int64_t>()});
      rerank_ms = rerank_watch.ElapsedMillis();
    }
    if (slate) {
      // Slate-occupancy histogram + rerank-stage latency (the lane
      // critical section above), one stats lock for the micro-batch.
      std::vector<int64_t> slate_sizes(m);
      for (size_t k = 0; k < m; ++k) {
        slate_sizes[k] = static_cast<int64_t>(miss_requests[k]->items.size());
      }
      stats_.RecordSlateBatch(slate_sizes, rerank_ms);
    }

    // A non-finite logit (a NaN or Inf weight, an overflow) is a model
    // fault, not a ranking: that request fails with kInternal and its
    // scores are neither served nor cached. Checked on the logits,
    // because the fast tier's sigmoid clamps a NaN to a finite score.
    for (size_t k = 0; k < m; ++k) {
      const auto first = logits.begin() + logits_row[k];
      const auto last = first + static_cast<std::ptrdiff_t>(
                                    miss_requests[k]->items.size());
      if (!std::all_of(first, last,
                       [](float v) { return std::isfinite(v); })) {
        admission[miss[k]] = Status::Internal(
            "Rank: non-finite score from model '" + snapshot.name() +
            "' version " + std::to_string(snapshot.version()));
      }
    }

    // One vectorised pass over the miss logits (in place; per-element
    // arithmetic matches the tier's sigmoid, so on the reference tier
    // this is still StableSigmoid element for element).
    SigmoidSpanInto(logits_span, logits_span);

    // Freshly computed scores feed the level-1 cache (outside the lane
    // lock: the cache has its own mutex and the floats are engine-
    // owned). Stored post-sigmoid, exactly the floats a later hit
    // serves — bitwise-equal to recompute by construction.
    if (score_cache_on) {
      SessionScoreCache& cache = snapshot.score_cache();
      for (size_t k = 0; k < m; ++k) {
        const size_t i = miss[k];
        if (!admission[i].ok()) continue;  // Non-finite scores.
        const RankRequest& request = *miss_requests[k];
        const float* first = logits.data() + logits_row[k];
        cache.Put(request.session_id, set_hash[i], history_hash[i],
                  item_hashes[i],
                  std::vector<float>(first, first + request.items.size()),
                  options_.score_cache_capacity);
      }
    }
  }

  const double service_ms = service_watch.ElapsedMillis();
  std::vector<RequestSample> samples;
  samples.reserve(n);
  size_t miss_cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = micro.request_indices[i];
    const RankRequest& request = requests[idx];
    RankResponse& response = (*responses)[idx];
    const double queue_ms =
        queue_delays_ms == nullptr ? 0.0 : (*queue_delays_ms)[idx];
    // Miss requests took the forward's rows in `miss` order.
    const bool missed =
        miss_cursor < miss.size() && miss[miss_cursor] == i;
    const size_t k = missed ? miss_cursor++ : 0;
    if (!admission[i].ok()) {
      // A client error, or a forward that produced a non-finite score:
      // no scores, no request sample (the latency/occupancy metrics
      // count served traffic only).
      response = RejectedResponse(request, snapshot, granted,
                                  std::move(admission[i]));
      response.latency_ms = service_ms + queue_ms;
      response.queue_ms = queue_ms;
      continue;
    }
    const bool served_from_cache = score_lookup[i] == 1;
    response.session_id = request.session_id;
    response.model = snapshot.name();
    response.model_version = snapshot.version();
    response.arm = granted;
    response.replica = served_from_cache ? -1 : lease.replica();
    response.latency_ms = service_ms + queue_ms;
    response.queue_ms = queue_ms;
    response.score_cache_hit = served_from_cache;
    response.scores.resize(request.items.size());
    RequestSample& sample = samples.emplace_back();
    sample.items = static_cast<int64_t>(request.items.size());
    sample.latency_ms = response.latency_ms;
    if (queue_delays_ms != nullptr) sample.queue_ms = queue_ms;
    sample.score_lookup = score_lookup[i];
    if (served_from_cache) {
      response.gate_shared = false;
      response.gate_cache_hit = false;
      response.encoding_cache_hit = false;
      for (size_t j = 0; j < request.items.size(); ++j) {
        response.scores[j] = hit_scores[i][j];
      }
    } else {
      response.gate_shared = shared;
      response.gate_cache_hit = gate_lookup[k] == 1;
      response.encoding_cache_hit = encoding_lookup[k] == 1;
      int64_t row = logits_row[k];
      for (size_t j = 0; j < request.items.size(); ++j, ++row) {
        response.scores[j] = logits[static_cast<size_t>(row)];
      }
      // Gate counters split hit vs miss only: a stale row is a miss.
      if (shared) sample.gate_lookup = gate_lookup[k] == 1 ? 1 : 0;
      sample.encoding_lookup = encoding_lookup[k];
    }
  }
  // Every request rejected at the admission backstop: nothing was
  // served, so there is no micro-batch to account.
  if (samples.empty()) return;
  // One lock acquisition for the whole micro-batch: workers and the
  // async flusher lanes contend on the stats mutex, so the hot path
  // must not take it per request.
  LeaseSample lease_sample;
  lease_sample.model = snapshot.name();
  lease_sample.version = snapshot.version();
  lease_sample.num_replicas = snapshot.num_replicas();
  if (miss.empty()) {
    // Fully served from the score cache: the snapshot is real but no
    // lane was leased and no forward pass ran.
    lease_sample.replica = -1;
    lease_sample.active_lanes = 0;
    lease_sample.lane_leased = false;
  } else {
    lease_sample.replica = lease.replica();
    lease_sample.active_lanes = lease.active_lanes_at_acquire();
  }
  stats_.RecordMicroBatch(miss_items, samples, &lease_sample);
}

void ServingEngine::ExecuteMicroBatchOrFail(
    const MicroBatch& micro, const std::vector<RankRequest>& requests,
    const std::vector<double>* queue_delays_ms,
    const Stopwatch& service_watch, std::vector<RankResponse>* responses) {
  try {
    ExecuteMicroBatch(micro, requests, queue_delays_ms, service_watch,
                      responses);
  } catch (const std::exception& e) {
    // The whole micro-batch fails as a model fault, and the thread
    // lives on: unwinding released the lease and the lane lock.
    RecordArmFailure(micro.model, micro.arm);
    for (const size_t idx : micro.request_indices) {
      RankResponse& response = (*responses)[idx] = RankResponse();
      response.status = Status::Internal("forward of model '" + micro.model +
                                         "' threw: " + e.what());
      response.session_id = requests[idx].session_id;
      response.model = micro.model;
      response.arm = micro.arm;
      response.replica = -1;
    }
  }
}

void ServingEngine::RunJobs(std::vector<std::function<void()>> jobs) {
  if (workers_.empty() || jobs.size() <= 1) {
    for (auto& job : jobs) job();
    return;
  }
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = jobs.size();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto& job : jobs) {
      queue_.push_back([task = std::move(job), sync] {
        task();
        {
          std::lock_guard<std::mutex> lock(sync->mu);
          --sync->remaining;
        }
        sync->cv.notify_one();
      });
    }
  }
  queue_cv_.notify_all();
  // Work-share: the caller drains the queue alongside the workers
  // instead of blocking idle, so num_threads means num_threads lanes of
  // work (n-1 workers + this thread). The caller may pick up jobs from
  // a concurrent RankBatch — that is fine, they are self-contained.
  for (;;) {
    std::function<void()> job;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!queue_.empty()) {
        job = std::move(queue_.back());
        queue_.pop_back();
      }
    }
    if (!job) break;
    job();
  }
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->remaining == 0; });
}

std::vector<RankResponse> ServingEngine::RankBatch(
    const std::vector<RankRequest>& requests) {
  std::vector<RankResponse> responses(requests.size());
  if (requests.empty()) return responses;
  Stopwatch submit_watch;

  // Route: group request indices by (resolved model, rollout arm) —
  // encoded as one route key — keeping first-seen route order and
  // request order within a route. Splitting by arm keeps the invariant
  // that one micro-batch runs on exactly one snapshot. Each request is
  // admitted against its route's snapshot, pinned once per route for
  // this pass only (ExecuteMicroBatch re-admits against the snapshot it
  // actually pins, covering a hot swap between here and the lease).
  std::vector<std::string> route_order;
  std::unordered_map<std::string, std::vector<size_t>> by_route;
  {
    struct RouteSnapshot {
      std::shared_ptr<const ModelSnapshot> snapshot;
      RolloutArm granted = RolloutArm::kStable;
    };
    std::unordered_map<std::string, RouteSnapshot> route_snapshots;
    for (size_t i = 0; i < requests.size(); ++i) {
      std::string name;
      if (!pool_->TryResolveName(requests[i].model, &name)) {
        responses[i] = UnknownModelResponse(requests[i]);
        continue;
      }
      const RolloutArm arm = RouteArm(name, requests[i]);
      const std::string key = EncodeRouteKey(name, arm);
      auto [route_it, route_new] = route_snapshots.try_emplace(key);
      RouteSnapshot& route = route_it->second;
      if (route_new) {
        route.snapshot = pool_->SnapshotForArm(name, arm, &route.granted);
      }
      Status admitted = Admit(requests[i], *route.snapshot);
      if (!admitted.ok()) {
        responses[i] = RejectedResponse(requests[i], *route.snapshot,
                                        route.granted, std::move(admitted));
        continue;
      }
      auto [it, inserted] = by_route.try_emplace(key);
      if (inserted) route_order.push_back(key);
      it->second.push_back(i);
    }
  }

  // Micro-batch: pack whole sessions per route until the item cap.
  std::vector<MicroBatch> micros;
  for (const std::string& key : route_order) {
    auto [name, arm] = DecodeRouteKey(key);
    MicroBatch current;
    current.model = name;
    current.arm = arm;
    for (size_t idx : by_route.at(key)) {
      const int64_t items =
          static_cast<int64_t>(requests[idx].items.size());
      if (!current.request_indices.empty() &&
          current.total_items + items > options_.max_batch_items) {
        micros.push_back(std::move(current));
        current = MicroBatch();
        current.model = name;
        current.arm = arm;
      }
      current.request_indices.push_back(idx);
      current.total_items += items;
    }
    if (!current.request_indices.empty()) micros.push_back(std::move(current));
  }

  std::vector<std::function<void()>> jobs;
  jobs.reserve(micros.size());
  for (const MicroBatch& micro : micros) {
    jobs.push_back([this, &micro, &requests, &submit_watch, &responses] {
      ExecuteMicroBatchOrFail(micro, requests, /*queue_delays_ms=*/nullptr,
                              submit_watch, &responses);
    });
  }
  RunJobs(std::move(jobs));
  return responses;
}

RankResponse ServingEngine::Rank(const RankRequest& request) {
  std::vector<RankResponse> responses = RankBatch({request});
  return std::move(responses[0]);
}

std::future<RankResponse> ServingEngine::Submit(RankRequest request) {
  // Resolve the route up front so per-route queues key on concrete
  // names; an unknown name is answered kNotFound, as on the synchronous
  // path. The rollout arm is pinned here too — submit time, not flush time —
  // so a ramp step between enqueue and flush cannot move a session
  // mid-flight; a candidate rolled back in that window falls back to
  // stable at lease time.
  std::string resolved;
  if (!pool_->TryResolveName(request.model, &resolved)) {
    return ReadyFuture(UnknownModelResponse(request));
  }
  const RolloutArm arm = RouteArm(resolved, request);
  const std::string route_key = EncodeRouteKey(resolved, arm);
  // Admission, as in RankBatch: reject before the request ever
  // occupies queue space. A client error — no version health sample is
  // recorded.
  {
    RolloutArm granted = arm;
    std::shared_ptr<const ModelSnapshot> snapshot =
        pool_->SnapshotForArm(resolved, arm, &granted);
    Status admitted = Admit(request, *snapshot);
    if (!admitted.ok()) {
      return ReadyFuture(RejectedResponse(request, *snapshot, granted,
                                          std::move(admitted)));
    }
  }
  AsyncBatchQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    if (async_queue_ == nullptr && !async_stopped_) {
      AsyncQueueOptions queue_options;
      queue_options.max_batch_candidates = options_.max_batch_candidates > 0
                                               ? options_.max_batch_candidates
                                               : options_.max_batch_items;
      queue_options.max_pending_requests = options_.max_pending_requests;
      // One flush lane per pool replica by default: a hot model can
      // keep every one of its replicas busy with its own in-flight
      // micro-batch instead of capping out at one global flusher.
      queue_options.num_flush_lanes = options_.async_flush_lanes > 0
                                          ? options_.async_flush_lanes
                                          : pool_->replicas();
      async_queue_ = std::make_unique<AsyncBatchQueue>(
          queue_options,
          [this](const std::string& key,
                 std::vector<AsyncBatchQueue::Pending> batch) {
            FlushAsync(key, std::move(batch));
          });
    }
    queue = async_queue_.get();
  }
  if (queue == nullptr) {
    // Stopped before the async front ever started.
    RankResponse response;
    response.status = Status::Unavailable("Submit: serving engine is stopped");
    response.session_id = request.session_id;
    response.model = resolved;
    return ReadyFuture(std::move(response));
  }
  Status sync_reject;
  std::future<RankResponse> future =
      queue->Submit(std::move(request), resolved, route_key, &sync_reject);
  // Serving-side rejects (backpressure, stopped) are failures of the
  // arm the request was routed to — feed them to that version's health
  // window so the rollout error-rate gate sees real overload, not just
  // hand-recorded test samples.
  if (sync_reject.code() == StatusCode::kResourceExhausted ||
      sync_reject.code() == StatusCode::kUnavailable) {
    RecordArmFailure(resolved, arm);
  }
  return future;
}

void ServingEngine::RecordArmFailure(const std::string& resolved,
                                     RolloutArm arm) {
  int64_t version =
      arm == RolloutArm::kCandidate ? pool_->CandidateVersion(resolved) : 0;
  if (version == 0) version = pool_->CurrentSnapshot(resolved)->version();
  stats_.RecordVersionSample(resolved, version, 0.0, /*ok=*/false);
}

void ServingEngine::Stop(bool drain) {
  AsyncBatchQueue* queue = nullptr;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    async_stopped_ = true;
    // Stop the queue in place instead of destroying it: a Submit that
    // grabbed the pointer concurrently must find a live object (it will
    // be rejected with kUnavailable).
    queue = async_queue_.get();
  }
  if (queue != nullptr) queue->Stop(drain);
}

int64_t ServingEngine::pending_async_requests() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return async_queue_ == nullptr ? 0 : async_queue_->pending_requests();
}

void ServingEngine::FlushAsync(const std::string& route_key,
                               std::vector<AsyncBatchQueue::Pending> batch) {
  Stopwatch service_watch;
  const auto flush_start = std::chrono::steady_clock::now();
  const size_t n = batch.size();
  std::vector<RankRequest> requests;
  requests.reserve(n);
  std::vector<double> queue_delays_ms(n, 0.0);
  MicroBatch micro;
  micro.request_indices.resize(n);
  std::iota(micro.request_indices.begin(), micro.request_indices.end(),
            size_t{0});
  for (size_t i = 0; i < n; ++i) {
    queue_delays_ms[i] = std::chrono::duration<double, std::milli>(
                             flush_start - batch[i].enqueued_at)
                             .count();
    micro.total_items += static_cast<int64_t>(batch[i].request.items.size());
    requests.push_back(std::move(batch[i].request));
  }
  // The queue grouped the batch under the (resolved name, rollout arm)
  // key Submit pinned at enqueue time — route by that key, not by
  // re-resolving a possibly empty (default) request name or re-running
  // the router at flush time.
  auto [model, arm] = DecodeRouteKey(route_key);
  micro.model = std::move(model);
  micro.arm = arm;
  std::vector<RankResponse> responses(n);
  ExecuteMicroBatchOrFail(micro, requests, &queue_delays_ms, service_watch,
                          &responses);
  for (size_t i = 0; i < n; ++i) {
    batch[i].promise.set_value(std::move(responses[i]));
  }
}

}  // namespace awmoe
