#ifndef AWMOE_SERVING_SHARD_H_
#define AWMOE_SERVING_SHARD_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "serving/serving_stats.h"

namespace awmoe {

class Ranker;
class Standardizer;

/// Consistent-hash session->shard placement: each shard contributes
/// `vnodes_per_shard` points to a 64-bit hash ring, and a session is
/// served by the shard owning the first point at or after the session's
/// own ring position (wrapping). Placement is a pure function of
/// (session id, current shard set) — deterministic and sticky, like the
/// rollout `TrafficRouter`'s session buckets, so a session keeps both
/// its shard (gate-cache locality) and its rollout arm across requests.
/// The virtual nodes make rebalance minimal AND balanced: adding a
/// shard moves only the ~1/(N+1) of sessions that land on the new
/// shard's points (never between existing shards), removing one moves
/// only the removed shard's sessions, scattered evenly over the
/// survivors instead of dumped on one neighbour.
///
/// Thread-safe: `ShardFor` reads an immutable ring snapshot (one
/// mutex-guarded shared_ptr copy, no ring walk under the lock);
/// Add/RemoveShard publish a rebuilt ring.
class ShardRouter {
 public:
  explicit ShardRouter(int vnodes_per_shard = 64);

  /// Adds `shard_id`'s virtual nodes to the ring. CHECK-fails on a
  /// duplicate id.
  void AddShard(int shard_id);

  /// Removes `shard_id`'s virtual nodes. Returns false when the id is
  /// not on the ring.
  bool RemoveShard(int shard_id);

  /// The shard serving `session_id`. CHECK-fails on an empty ring.
  int ShardFor(int64_t session_id) const;

  bool HasShard(int shard_id) const;
  int num_shards() const;
  /// Shard ids currently on the ring, ascending.
  std::vector<int> shard_ids() const;
  int vnodes_per_shard() const { return vnodes_per_shard_; }

  /// A session's ring position (splitmix64 of the id, so sequential
  /// session ids scatter uniformly). Exposed so tests can predict
  /// placement exactly.
  static uint64_t SessionPoint(int64_t session_id);

  /// Ring position of `shard_id`'s `vnode`-th virtual node.
  static uint64_t VnodePoint(int shard_id, int vnode);

 private:
  struct Vnode {
    uint64_t point = 0;
    int shard = 0;
  };
  /// Ascending by (point, shard); immutable once published.
  using Ring = std::vector<Vnode>;

  std::shared_ptr<const Ring> RebuildLocked() const;

  const int vnodes_per_shard_;
  mutable std::mutex mu_;  // Guards shard_ids_ and the ring_ swap.
  std::vector<int> shard_ids_;
  std::shared_ptr<const Ring> ring_;
};

/// Admission-control knobs of the sharded fleet.
struct AdmissionOptions {
  /// Master switch; disabled, every Submit is admitted (the engine's
  /// own backpressure still applies).
  bool enabled = true;

  /// Deadline assumed for requests that carry none
  /// (`RankRequest::deadline_ms` == 0).
  double default_deadline_ms = 20.0;

  /// Availability floor of the degraded mode: when the sliding share of
  /// SHED decisions reaches this rate, further over-deadline requests
  /// are admitted as DEGRADED instead of shed (they will likely miss
  /// their deadline, but the fleet never rejects more than this
  /// fraction of traffic — an overloaded fleet serves slowly rather
  /// than going dark). 1.0 disables the floor (pure shedding).
  double max_shed_rate = 0.9;

  /// Decisions in the sliding shed-rate window.
  int shed_window = 256;

  /// Multiplier on the estimated sojourn (queue delay + own service)
  /// before it is compared against the deadline. The queue-length x
  /// mean-service estimate is systematically OPTIMISTIC under batched
  /// serving — the batch already in flight and service-time variance
  /// are invisible to it — and overshooting a deadline the caller has
  /// stopped waiting for is worse than shedding a request that would
  /// have just made it, so the controller biases conservative. 1.0 trusts the estimate exactly
  /// (the value unit tests use to pin the admission math).
  double estimate_safety = 1.5;

  /// Admission decisions between refreshes of the per-shard sliding
  /// service-time estimate (each refresh reads two engine counters; the
  /// decision itself stays O(1)).
  int load_refresh_every = 32;
};

/// Sliding mean-service-time estimator over a pair of monotone engine
/// counters (completed requests, accumulated service ms). Extracted
/// from the fleet's refresh path so its edge cases are unit-testable:
///
///  - zero-delta window (idle shard): keeps the previous estimate
///    instead of dividing by zero (NaN) or decaying to a stale 0;
///  - backwards counters (the engine's stats were reset underneath the
///    estimator): resyncs the baseline and keeps the last good
///    estimate, instead of freezing forever on a baseline the counters
///    can never catch up to;
///  - negative service delta at positive request delta (stats resets,
///    float noise): clamps the estimate at 0.
///
/// Not thread-safe; the caller serialises Update (the fleet holds the
/// shard's load_mu).
class MeanServiceEstimator {
 public:
  /// Folds one counter reading into the estimate and returns it.
  double Update(int64_t requests, double service_ms);
  /// Current estimate (ms/request); 0 until the first non-empty window.
  double estimate() const { return mean_ms_; }
  void Reset();

 private:
  int64_t last_requests_ = 0;
  double last_service_ms_ = 0.0;
  double mean_ms_ = 0.0;
};

/// Point-in-time load of one shard, as the admission controller sees it.
struct ShardLoad {
  /// Requests sitting in the shard engine's async queue.
  int64_t pending_requests = 0;
  /// Sliding mean service latency (ms/request) over the shard's recent
  /// completions; 0 until the first refresh window completes.
  double mean_service_ms = 0.0;
  /// Concurrent flush lanes draining the queue.
  int flush_lanes = 1;
};

/// Little's-law style queue-delay estimate: `pending` requests draining
/// at `mean_service_ms` per request across `flush_lanes` concurrent
/// lanes. The admission controller sheds when this (plus one service
/// time for the request itself) already exceeds the deadline.
double EstimateQueueDelayMs(const ShardLoad& load);

enum class AdmissionDecision {
  kAdmit = 0,    // Expected to meet its deadline.
  kShed = 1,     // Rejected with kResourceExhausted before queueing.
  kDegraded = 2, // Over deadline, but admitted: the shed-rate floor hit.
};

/// Deadline-aware load shedding, layered ABOVE the engine's queue-depth
/// backpressure: instead of waiting for the queue to hit a fixed cap,
/// it rejects a request the moment the shard's estimated queue delay
/// would already blow the request's deadline — the caller learns in
/// microseconds, the queue never grows past what the deadline can
/// absorb, and accepted requests keep a bounded tail. The sliding
/// shed-rate window enforces `max_shed_rate` (see AdmissionOptions).
/// Thread-safe; one instance per shard.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  /// Decides one request given the shard's current load. `deadline_ms`
  /// <= 0 uses the configured default.
  AdmissionDecision Decide(const ShardLoad& load, double deadline_ms);

  int64_t admitted() const;
  int64_t shed() const;
  int64_t degraded() const;
  /// Shed share of the sliding decision window (0 when empty).
  double window_shed_rate() const;

  void Reset();

  const AdmissionOptions& options() const { return options_; }

 private:
  const AdmissionOptions options_;
  mutable std::mutex mu_;
  int64_t admitted_ = 0;
  int64_t shed_ = 0;
  int64_t degraded_ = 0;
  /// Circular outcome window (1 = shed); bounds the actual shed rate.
  std::vector<uint8_t> window_;
  size_t window_next_ = 0;
  int64_t window_filled_ = 0;
  int64_t window_shed_ = 0;
};

/// One shard's slice of the fleet stats.
struct ShardStatsSnapshot {
  int shard_id = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t degraded = 0;
  /// Async queue depth at snapshot time.
  int64_t pending_requests = 0;
  /// The shard's sliding mean-service estimate (ms/request) as the
  /// admission controller currently sees it; 0 until the first
  /// non-empty refresh window.
  double mean_service_ms = 0.0;
  /// The shard engine's full snapshot (per-shard p50/p95/p99, QPS,
  /// version health, ...).
  ServingStatsSnapshot engine;
};

/// Fleet-wide view: per-shard snapshots plus their exact pooled merge.
struct FleetStats {
  std::vector<ShardStatsSnapshot> shards;
  /// All shards merged via `ServingStats::MergeFrom` — counters and
  /// latency histograms summed, so the percentiles are those of one
  /// histogram that saw every shard's requests (health windows stay
  /// per-shard; see serving_stats.h).
  ServingStatsSnapshot merged;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t degraded = 0;
  /// shed / (admitted + shed + degraded); 0 before any decision.
  double shed_rate = 0.0;
  /// max over shards of completed requests, divided by the per-shard
  /// mean — 1.0 is a perfectly even fleet, N is everything on one of N
  /// shards. 0 before any request completes.
  double imbalance = 0.0;
};

struct FleetOptions {
  /// Shards created at construction (ids 0..num_shards-1). More can be
  /// added later with AddShard().
  int num_shards = 2;
  /// Virtual nodes per shard on the placement ring.
  int vnodes_per_shard = 64;
  /// Applied to every shard's ModelPool.
  ModelPoolOptions pool;
  /// Applied to every shard's ServingEngine.
  ServingEngineOptions engine;
  AdmissionOptions admission;
};

/// Fleet-scale serving (ROADMAP item 2): N independent `ServingEngine`
/// shards — each with its OWN ModelPool (replica lanes, gate caches)
/// and async queue, sharing no mutable state — behind a consistent-hash
/// `ShardRouter` and a deadline-aware `AdmissionController` per shard.
/// A session is always served by one shard, so its cached gate rows
/// live exactly once in the fleet and stay hot; scores are bitwise
/// independent of the shard count because every pool holds exact clones
/// of the same registered master model.
///
/// Model operations fan out: Register/UpdateModel/StageCandidate/
/// Promote/Drop apply to every shard from one fleet-retained master
/// copy (models must be clonable), and the fleet replays the full
/// publish history onto a shard added mid-life, so version numbers —
/// which stats and rollout health key on — agree across shards.
/// Rollout ramps fan out through `SetSplit`; the router's session
/// buckets are shard-independent, so one session sees one arm
/// fleet-wide.
///
/// Serving paths: `Rank` routes synchronously (no admission — the
/// caller's thread is the backpressure); `Submit` is the open-loop
/// front door: route -> admission decision -> shard engine queue. Shed
/// requests resolve immediately with kResourceExhausted and are NOT
/// recorded into model version health (shedding is a load signal, not
/// a model-quality one — rollout gates must not count it against a
/// candidate).
class ShardedServingFleet {
 public:
  /// `standardizer` may be null and is not owned; `meta` is copied into
  /// every shard pool.
  ShardedServingFleet(const DatasetMeta& meta,
                      const Standardizer* standardizer,
                      FleetOptions options = {});
  ~ShardedServingFleet();

  ShardedServingFleet(const ShardedServingFleet&) = delete;
  ShardedServingFleet& operator=(const ShardedServingFleet&) = delete;

  // --- Fleet-wide model operations (fan out to every shard). ---

  /// Registers `model` under `name` on every shard (each gets its own
  /// clone; the master is retained for future shards). The first
  /// registration becomes the default route. CHECK-fails when the model
  /// cannot Clone().
  void RegisterOwned(const std::string& name, std::unique_ptr<Ranker> model);

  /// Publishes `model` as the next stable version on every shard.
  /// Returns the (shard-agreed) new version number.
  int64_t UpdateModel(const std::string& name, std::unique_ptr<Ranker> model);

  /// Stages `model` as the rollout candidate on every shard. Returns
  /// the candidate version.
  int64_t StageCandidate(const std::string& name,
                         std::unique_ptr<Ranker> model);

  /// Promotes the staged candidate on every shard and clears the
  /// traffic split. Returns the promoted version.
  int64_t PromoteCandidate(const std::string& name);

  /// Drops the staged candidate on every shard and clears the traffic
  /// split. Returns false when none was staged.
  bool DropCandidate(const std::string& name);

  /// Sets `name`'s candidate traffic share (permille) on every shard's
  /// router. Sessions bucket identically on all shards.
  void SetSplit(const std::string& name, int permille);
  void ClearSplit(const std::string& name);

  // --- Topology. ---

  /// Brings up a new shard (fresh pool + engine), replays the fleet's
  /// model state onto it — same stable versions, same staged candidate
  /// and split, same minted-version high-water marks — and then adds it
  /// to the ring. Returns the new shard id. Sessions that move to it
  /// start gate-cold; nobody else moves.
  int AddShard();

  /// Removes the shard from the ring (its sessions re-place onto the
  /// survivors), then stops its engine. With drain=true queued requests
  /// finish first. Returns false for an unknown id. CHECK-fails when it
  /// would empty the fleet.
  bool RemoveShard(int shard_id, bool drain = true);

  // --- Serving. ---

  /// Synchronous scoring on the session's shard. Deadlines are ignored
  /// here (see class comment).
  RankResponse Rank(const RankRequest& request);

  /// Open-loop front door: consistent-hash route, admission decision
  /// against the target shard's live load, then the shard engine's
  /// async queue. The future always becomes ready; shed requests
  /// resolve immediately with kResourceExhausted.
  std::future<RankResponse> Submit(RankRequest request);

  // --- Observability & lifecycle. ---

  FleetStats Stats() const;
  void ResetStats();

  /// Stops every shard's async front (see ServingEngine::Stop).
  void Stop(bool drain = true);

  /// Live snapshots summed over every shard pool — the fleet leak
  /// check (== shards x per-pool expectation once traffic drains).
  int64_t live_snapshots() const;

  int num_shards() const;
  std::vector<int> shard_ids() const;
  const ShardRouter& router() const { return router_; }
  const FleetOptions& options() const { return options_; }

  /// The shard a session currently routes to.
  int ShardForSession(int64_t session_id) const {
    return router_.ShardFor(session_id);
  }

  /// Per-shard introspection (tests, examples); nullptr for an unknown
  /// id. Not pinned against a concurrent RemoveShard of that id.
  ServingEngine* engine(int shard_id) const;
  ModelPool* pool(int shard_id) const;
  const AdmissionController* admission(int shard_id) const;

 private:
  struct FleetShard;  // Defined in shard.cc.
  /// Fleet-retained master copy of one registered model plus the
  /// version ledger replayed onto new shards.
  struct MasterModel {
    std::unique_ptr<Ranker> stable;
    std::unique_ptr<Ranker> candidate;  // Null outside rollouts.
    int64_t stable_version = 1;
    /// High-water mark of minted versions (survives dropped
    /// candidates, mirroring ModelPool::RouteEntry::newest_version).
    int64_t newest_version = 1;
    int64_t candidate_version = 0;  // 0 = none staged.
    int split_permille = -1;        // -1 = no route configured.
  };

  /// Creates a shard, replays `masters_` onto it, registers it with the
  /// ring. Caller holds ops_mu_.
  int AddShardLocked();
  std::shared_ptr<FleetShard> Shard(int shard_id) const;
  std::shared_ptr<FleetShard> ShardForSessionPtr(int64_t session_id) const;
  /// Stable view of the current shards, ascending by id.
  std::vector<std::shared_ptr<FleetShard>> AllShards() const;
  /// Builds the admission view of `shard`'s load, refreshing its
  /// sliding service-time estimate every `load_refresh_every` calls.
  ShardLoad CurrentLoad(FleetShard* shard) const;

  FleetOptions options_;
  DatasetMeta meta_;
  const Standardizer* standardizer_;

  ShardRouter router_;

  /// Serialises fleet-wide model ops and topology changes against each
  /// other (never held on the Submit/Rank hot path).
  std::mutex ops_mu_;
  std::map<std::string, MasterModel> masters_;  // Keyed by model name.
  /// First registered name; replayed onto added shards so their default
  /// route matches (masters_ iterates alphabetically, not in
  /// registration order).
  std::string default_model_;
  int next_shard_id_ = 0;

  /// Guards the shard map only; hot-path lookups copy one shared_ptr
  /// under it. A removed shard is destroyed when the last in-flight
  /// reference drops.
  mutable std::mutex shards_mu_;
  std::map<int, std::shared_ptr<FleetShard>> shards_;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_SHARD_H_
