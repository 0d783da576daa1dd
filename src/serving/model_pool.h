#ifndef AWMOE_SERVING_MODEL_POOL_H_
#define AWMOE_SERVING_MODEL_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/example.h"
#include "models/ranker.h"
#include "serving/request.h"

namespace awmoe {

class Standardizer;

/// FNV-1a over the features a session-constant gate may read (behaviour
/// sequence + query + user): the validity stamp of a cached gate row.
/// Shared by the serving engine's lookups and the pool's gate warm-up,
/// which MUST agree or warmed rows would never hit. Every variable-
/// length section is preceded by its own length tag, so contexts that
/// differ only in where one section ends and the next begins can never
/// collide. Also the validity stamp of cached session ENCODINGS: the
/// encoding reads a subset of these fields (behaviour sequence + query
/// + user + age folds in via SessionHistoryHash on the score cache),
/// so "same gate context" conservatively implies "same encoding".
uint64_t GateContextHash(const Example& ex);

/// Hash of the SESSION-CONSTANT request fields (user, age, query,
/// behaviour history) — the score cache's invalidation trigger: when a
/// session's history hash changes (the user clicked something between
/// requests), every score cached for that session is stale.
uint64_t SessionHistoryHash(const Example& ex);

/// Content hash of EVERYTHING a candidate's score depends on: the
/// session-constant fields plus the candidate's target ids/attrs and
/// numeric features. Two examples with equal CandidateScoreHash collate
/// to identical batch rows, so (per-row batch-composition independence,
/// tests/models/inference_path_test.cc) they score bitwise-identically
/// — the property that lets the score cache verify per-element hashes
/// on lookup and makes set-hash collisions harmless.
uint64_t CandidateScoreHash(const Example& ex);

/// Outcome of a session-cache lookup, for per-level hit/miss/
/// invalidation counters: kStale means the entry existed but its
/// validity stamp no longer matched (history moved on) and was evicted.
enum class CacheLookup {
  kHit = 0,
  kMiss = 1,
  kStale = 2,
};

/// Per-session row LRU (§III-F gate rows across requests; since the
/// session feature store, also the candidate-independent behaviour-
/// sequence encodings, one instance each). Lives inside a model
/// snapshot, so a published weight update naturally starts cold — rows
/// computed under old weights can never leak into new-version scores.
/// Internally locked: lookups and inserts are short critical sections;
/// the expensive forwards happen under replica-lane locks, never under
/// this one.
class SessionGateCache {
 public:
  /// On a fresh hit (same session, same context hash) copies the cached
  /// row into `row`, touches the LRU, and returns kHit. A stale entry
  /// (same session, different hash — the behaviour sequence grew) is
  /// erased so the caller re-probes and returns kStale; kMiss means the
  /// session had no entry at all.
  CacheLookup Lookup(int64_t session_id, uint64_t context_hash,
                     std::vector<float>* row);

  /// Inserts (or overwrites) the session's row and trims the LRU to
  /// `capacity` entries. No-op when capacity <= 0.
  void Put(int64_t session_id, uint64_t context_hash,
           std::vector<float> row, int64_t capacity);

  int64_t size() const;
  /// Estimated resident bytes: float payload plus per-entry list/index
  /// node overhead (the memory-sizing gauge FleetStats reports).
  int64_t bytes() const;

 private:
  struct Entry {
    int64_t session_id = 0;
    uint64_t context_hash = 0;
    std::vector<float> row;
  };

  int64_t EntryBytes(const Entry& entry) const;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<int64_t, std::list<Entry>::iterator> index_;
  int64_t bytes_ = 0;
};

/// Level-1 result cache: full per-candidate scores of exact repeat
/// requests, keyed by (session_id, order-insensitive candidate-set
/// hash) and stamped with the session-history hash. A hit serves the
/// whole request without touching a replica lane. Like the gate cache
/// it lives inside a ModelSnapshot, so hot swaps retire it wholesale
/// (new version = cache-cold by construction) and entries can never
/// cross versions.
///
/// Correctness against hash collisions: the SET hash only routes to an
/// entry; the entry stores every candidate's full CandidateScoreHash,
/// and Lookup fills the output by matching each requested candidate's
/// hash against them — a request whose set hash collides with a
/// different candidate set fails the per-element match and misses.
class SessionScoreCache {
 public:
  /// kHit: every requested candidate's hash matched; `out[j]` holds the
  /// cached score of `item_hashes[j]` (request order, not stored
  /// order). kStale: the session's cached entries carry a history stamp
  /// other than `history_hash` — the session's history moved on — so
  /// ALL of the session's entries were evicted (detected whether or not
  /// this exact candidate set was cached: stale pages never linger).
  /// kMiss: the session has no entries (or none under a conflicting
  /// stamp) for this set hash, or a per-element hash failed to match
  /// (set-hash collision).
  CacheLookup Lookup(int64_t session_id, uint64_t set_hash,
                     uint64_t history_hash,
                     const std::vector<uint64_t>& item_hashes,
                     std::span<float> out);

  /// Inserts (or overwrites) the entry and trims the LRU to `capacity`.
  /// Entries of this session stamped with a DIFFERENT history hash are
  /// evicted first: all live entries of a session always share one
  /// history stamp. `item_hashes[j]` must describe `scores[j]`; both
  /// are re-ordered internally for lookup. No-op when capacity <= 0.
  void Put(int64_t session_id, uint64_t set_hash, uint64_t history_hash,
           const std::vector<uint64_t>& item_hashes,
           const std::vector<float>& scores, int64_t capacity);

  int64_t size() const;
  /// Estimated resident bytes (hash + score payload + node overhead).
  int64_t bytes() const;

 private:
  /// (session_id, candidate-set hash). Ordered map keys keep one
  /// session's entries contiguous, so history invalidation is a range
  /// erase instead of a full scan.
  using Key = std::pair<int64_t, uint64_t>;

  struct Entry {
    Key key;
    uint64_t history_hash = 0;
    /// Sorted ascending; scores[i] belongs to item_hashes[i].
    std::vector<uint64_t> item_hashes;
    std::vector<float> scores;
  };

  int64_t EntryBytes(const Entry& entry) const;
  /// Erases every entry of `session_id`. Caller holds mu_.
  void EraseSessionLocked(int64_t session_id);

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::map<Key, std::list<Entry>::iterator> index_;
  int64_t bytes_ = 0;
};

/// Point-in-time cache occupancy of one snapshot (or a pool-wide sum):
/// the capacity/memory accounting FleetStats surfaces.
struct CacheUsage {
  int64_t score_entries = 0;
  int64_t score_bytes = 0;
  int64_t encoding_entries = 0;
  int64_t encoding_bytes = 0;
  int64_t gate_entries = 0;
  int64_t gate_bytes = 0;

  CacheUsage& operator+=(const CacheUsage& other) {
    score_entries += other.score_entries;
    score_bytes += other.score_bytes;
    encoding_entries += other.encoding_entries;
    encoding_bytes += other.encoding_bytes;
    gate_entries += other.gate_entries;
    gate_bytes += other.gate_bytes;
    return *this;
  }
};

/// One execution lane of a snapshot: a ranker replica with its own
/// weight storage (lane 0 borrows the registered model; lanes 1..N-1
/// are deep clones), its own forward lock, and lease counters. N lanes
/// mean N forwards for the same model can run concurrently.
struct ReplicaLane {
  Ranker* model = nullptr;
  std::unique_ptr<Ranker> owned;  // Null for a borrowed lane-0 model.

  /// The lane's preallocated Score state (arena + staging buffers),
  /// created lazily by EnsureWorkspace and kept for the lane's
  /// lifetime: each lane scores with its own buffers, so lanes stay
  /// lock-free against each other and cache-warm across micro-batches.
  /// Guarded by `mu`, like every forward on this lane.
  std::unique_ptr<InferenceWorkspace> workspace;

  /// Returns the lane workspace, (re)creating it when absent or sized
  /// below `min_candidates`. Caller must hold `mu`.
  InferenceWorkspace* EnsureWorkspace(int64_t min_candidates);

  /// Serialises forwards on this lane (the graph-free inference path
  /// still shares per-replica model state and the lane workspace).
  std::mutex mu;
  /// Leases currently held on this lane (lane-occupancy gauge).
  std::atomic<int64_t> active{0};
  /// Lifetime lease count.
  std::atomic<int64_t> leases{0};
};

/// An immutable, refcounted published version of one model: the replica
/// lanes plus the per-session gate cache. `shared_ptr<const
/// ModelSnapshot>` is the retirement mechanism — in-flight requests
/// hold the snapshot they started on, so `ModelPool::UpdateModel` can
/// publish a new version while old-version forwards finish untorn; the
/// old snapshot (and its clones) frees itself when the last lease
/// releases.
class ModelSnapshot {
 public:
  /// Built by ModelPool. `base` is lane 0 (owned when `owned_base` is
  /// non-null); lanes beyond the first are materialised via
  /// `base->Clone()`. A model that cannot clone serves single-lane.
  ModelSnapshot(std::string name, int64_t version, Ranker* base,
                std::unique_ptr<Ranker> owned_base, int replicas,
                const DatasetMeta& meta,
                std::shared_ptr<std::atomic<int64_t>> live_counter);
  ~ModelSnapshot();

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  const std::string& name() const { return name_; }
  int64_t version() const { return version_; }
  int num_replicas() const { return static_cast<int>(lanes_.size()); }
  /// The model's serving capabilities, stamped once at publish time from
  /// Ranker::Traits under the pool's meta — no downcast — and
  /// normalised: a width is zeroed when its share_* bit is false, and a
  /// share_* bit is false when its width is 0. The engine reads it for
  /// the shared-gate path (§III-F), the session feature store, slate
  /// atomicity with the level-1 cache bypass, and the admission check
  /// that rejects slates longer than max_slate_items.
  const ServingTraits& traits() const { return traits_; }

  /// Lane 0's model — the registered/published instance itself.
  Ranker* primary() const { return lanes_[0]->model; }

  ReplicaLane& lane(int replica) const { return *lanes_[replica]; }

  /// Lanes currently executing or holding a lease (> 0 active).
  int ActiveLanes() const;

  SessionGateCache& gate_cache() const { return gate_cache_; }
  /// Level-2 feature store: cached candidate-independent behaviour-
  /// sequence encodings, keyed per session under GateContextHash.
  SessionGateCache& encoding_cache() const { return encoding_cache_; }
  /// Level-1 result cache: full repeat-request scores.
  SessionScoreCache& score_cache() const { return score_cache_; }

  /// Current occupancy of all three snapshot-scoped caches.
  CacheUsage cache_usage() const;

 private:
  std::string name_;
  int64_t version_;
  ServingTraits traits_;
  // unique_ptr elements: lanes hold a mutex and atomics, so they must
  // not move once handed out.
  std::vector<std::unique_ptr<ReplicaLane>> lanes_;
  mutable SessionGateCache gate_cache_;
  mutable SessionGateCache encoding_cache_;
  mutable SessionScoreCache score_cache_;
  std::shared_ptr<std::atomic<int64_t>> live_counter_;
};

/// RAII grant of (snapshot, replica lane): holding the lease pins the
/// snapshot (refcount) and counts against the lane's occupancy. The
/// caller locks `lane().mu` around its forwards; the lease itself does
/// not hold the lock, so acquiring is cheap and never blocks behind a
/// running forward.
class SnapshotLease {
 public:
  SnapshotLease() = default;
  SnapshotLease(std::shared_ptr<const ModelSnapshot> snapshot, int replica,
                int active_lanes, RolloutArm arm = RolloutArm::kStable);
  ~SnapshotLease();

  SnapshotLease(SnapshotLease&& other) noexcept;
  SnapshotLease& operator=(SnapshotLease&& other) noexcept;
  SnapshotLease(const SnapshotLease&) = delete;
  SnapshotLease& operator=(const SnapshotLease&) = delete;

  explicit operator bool() const { return snapshot_ != nullptr; }
  const ModelSnapshot& snapshot() const { return *snapshot_; }
  ReplicaLane& lane() const { return snapshot_->lane(replica_); }
  int replica() const { return replica_; }
  /// Arm this lease was actually granted on: kStable when an acquire
  /// routed at the candidate fell back because none was staged (or the
  /// rollout was rolled back between routing and acquiring).
  RolloutArm arm() const { return arm_; }
  /// Snapshot lanes active (including this lease) at acquire time — the
  /// lane-occupancy sample the stats record.
  int active_lanes_at_acquire() const { return active_lanes_; }

 private:
  void Release();

  std::shared_ptr<const ModelSnapshot> snapshot_;
  int replica_ = 0;
  int active_lanes_ = 0;
  RolloutArm arm_ = RolloutArm::kStable;
};

struct ModelPoolOptions {
  /// Execution lanes per published snapshot: one loaded model is
  /// expanded into `replicas` deep clones so that many forwards for the
  /// same model run concurrently instead of queueing on one lock.
  /// Models whose Clone() returns null serve single-lane regardless.
  int replicas = 1;
};

/// Named, versioned ranking models behind one shared preprocessing
/// context (DatasetMeta + fitted Standardizer) — the successor of the
/// startup-only ModelRegistry. Each name maps to the current
/// `ModelSnapshot`; `Acquire` hands out snapshot+replica leases for
/// forwards, and `UpdateModel` atomically publishes a new version while
/// in-flight leases finish on the old one (grace-period retirement via
/// refcount — no torn reads, no locks held across forwards).
///
/// The pool is also the unit an A/B experiment operates on: control and
/// treatment are two names in one pool, served by one engine with
/// identical collation, so score differences come only from the models.
///
/// For staged rollouts each name can additionally pin a CANDIDATE
/// snapshot next to the stable one (`StageCandidate`): both versions
/// stay live and leasable at once so a `TrafficRouter` can ramp real
/// traffic between them, then `PromoteCandidate` or `DropCandidate`
/// ends the rollout (serving/rollout.h orchestrates the ramp).
class ModelPool {
 public:
  /// `standardizer` may be null (raw features) and is not owned.
  ModelPool(const DatasetMeta& meta, const Standardizer* standardizer,
            ModelPoolOptions options = {});

  ModelPool(const ModelPool&) = delete;
  ModelPool& operator=(const ModelPool&) = delete;

  /// Registers a non-owned model as version 1 under `name`. The first
  /// registration becomes the default route. Names must be unique and
  /// non-empty.
  void Register(const std::string& name, Ranker* model);

  /// Registers a model the pool takes ownership of. `first_version`
  /// (default 1) is the version number it is published as: the sharded
  /// fleet (serving/shard.h) passes the fleet's current version when a
  /// shard is added mid-life, so every shard mints the same version
  /// numbers for the same publish history (stats and rollout health
  /// windows key on (model, version)).
  void RegisterOwned(const std::string& name, std::unique_ptr<Ranker> model,
                     int64_t first_version = 1);

  /// Atomically publishes `model` as the next version of `name` (which
  /// must already be registered) and returns the new version number.
  /// Requests already holding a lease finish on the old snapshot; new
  /// acquires see only the new one. The retired snapshot frees itself
  /// (clones included) when its last lease releases. This is the
  /// ALL-OR-NOTHING cutover; CHECK-fails while a candidate is staged —
  /// promote or drop the rollout first (mixing the two publish paths
  /// would fork the version history).
  int64_t UpdateModel(const std::string& name, std::unique_ptr<Ranker> model);

  // --- Staged rollout: a second live pinned version per model. ---

  /// Publishes `model` as the CANDIDATE version of `name` without
  /// touching the stable route: both snapshots stay live and leasable,
  /// so a TrafficRouter can ramp real traffic between them (see
  /// serving/rollout.h). Returns the candidate's version number (minted
  /// after the newest version ever published under this name). Staging
  /// over an existing candidate replaces it; the displaced candidate
  /// retires when its last lease releases.
  int64_t StageCandidate(const std::string& name,
                         std::unique_ptr<Ranker> model);

  /// Completes a rollout: the candidate becomes the stable route and the
  /// old stable snapshot retires when its last lease drains. Counts as a
  /// publish (`swap_count` increments). CHECK-fails when no candidate is
  /// staged. Returns the promoted version number.
  int64_t PromoteCandidate(const std::string& name);

  /// Aborts a rollout: the candidate is unpublished and retires when the
  /// last in-flight lease on it releases; the stable route is untouched.
  /// New acquires routed at the candidate fall back to stable. No-op
  /// (returns false) when no candidate is staged.
  bool DropCandidate(const std::string& name);

  /// Gate-cache warm-up: pre-populates the gate LRU of `name`'s
  /// snapshot on `arm` (kCandidate warms a staged rollout candidate
  /// BEFORE it takes traffic, so its first ramp slice starts gate-warm
  /// instead of paying cold probes; kStable warms e.g. a freshly
  /// registered model from logged sessions). One gate row is computed
  /// per session — from its first item, exactly as the engine probes —
  /// and stored under the same GateContextHash, so the engine's
  /// lookups hit. Rows are scored through lane 0's workspace in
  /// micro-batches. Returns the number of sessions cached: 0 when the
  /// snapshot is missing (no candidate staged), the model has no
  /// shareable gate, or `gate_cache_capacity` <= 0 (pass the serving
  /// engine's configured capacity so eviction order matches serving).
  int64_t WarmSessionGates(
      const std::string& name, RolloutArm arm,
      const std::vector<std::vector<const Example*>>& sessions,
      int64_t gate_cache_capacity);

  /// The staged candidate snapshot under `resolved_name`, or nullptr.
  std::shared_ptr<const ModelSnapshot> CandidateSnapshot(
      const std::string& resolved_name) const;

  /// The staged candidate's version, or 0 when none is staged.
  int64_t CandidateVersion(const std::string& resolved_name) const;

  bool HasCandidate(const std::string& resolved_name) const;

  /// Re-points the default route (name must be registered).
  void SetDefault(const std::string& name);

  /// The current primary model under `name`, or nullptr when absent.
  /// The raw pointer is NOT pinned: for models the pool owns
  /// (RegisterOwned / UpdateModel), a concurrent UpdateModel retires
  /// the snapshot and frees it. Startup/test introspection only —
  /// serving paths must go through Acquire/CurrentSnapshot.
  Ranker* Find(const std::string& name) const;

  /// Resolves a request route: empty name -> default model. CHECK-fails
  /// on an unknown non-empty name or an empty pool. Same pinning caveat
  /// as Find().
  Ranker* Resolve(const std::string& name) const;

  /// The pool name `Resolve(name)` routes to. Returned by value: the
  /// default route can be re-pointed at runtime, so a reference into
  /// pool state could be overwritten mid-read. CHECK-fails like
  /// Resolve(); paths that take client input use TryResolveName.
  std::string ResolveName(const std::string& name) const;

  /// Non-aborting ResolveName: writes the routed pool name into
  /// `resolved` and returns true, or returns false on an unknown name
  /// or an empty name with no default model. Models are never
  /// unregistered, so a name resolved once stays valid.
  bool TryResolveName(const std::string& name, std::string* resolved) const;

  /// The current STABLE snapshot published under `resolved_name`.
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot(
      const std::string& resolved_name) const;

  /// Pins the current stable snapshot of `resolved_name` and picks its
  /// least-loaded replica lane (round-robin on ties).
  SnapshotLease Acquire(const std::string& resolved_name) const;

  /// Arm-aware acquire: kStable pins the stable snapshot; kCandidate
  /// pins the staged candidate, falling back to stable when none is
  /// staged (rollback drains in-flight candidate leases, then every new
  /// acquire lands here). `SnapshotLease::arm()` reports which arm was
  /// actually granted. Composition of SnapshotForArm + LeaseLane.
  SnapshotLease Acquire(const std::string& resolved_name,
                        RolloutArm arm) const;

  /// Pins the snapshot `arm` resolves to — the snapshot HALF of
  /// Acquire, split out so the serving engine can consult the
  /// snapshot's caches (a full score-cache hit never needs a lane) and
  /// lease a lane only if real compute remains. Writes the arm actually
  /// granted (kStable fallback when no candidate is staged) to
  /// `granted` when non-null.
  std::shared_ptr<const ModelSnapshot> SnapshotForArm(
      const std::string& resolved_name, RolloutArm arm,
      RolloutArm* granted) const;

  /// The lane HALF of Acquire: picks `snapshot`'s least-loaded replica
  /// lane (round-robin on ties) and returns the lease pinning it.
  SnapshotLease LeaseLane(std::shared_ptr<const ModelSnapshot> snapshot,
                          RolloutArm granted) const;

  /// Summed cache occupancy over every live published snapshot (stable
  /// and staged candidates) — the pool's contribution to the fleet's
  /// cache-memory gauges.
  CacheUsage TotalCacheUsage() const;

  std::string default_model() const;


  size_t size() const;

  const DatasetMeta& meta() const { return meta_; }
  const Standardizer* standardizer() const { return standardizer_; }
  int replicas() const { return options_.replicas; }

  /// Stable-route publications: UpdateModel cutovers plus promoted
  /// candidates (initial registrations and stagings excluded).
  int64_t swap_count() const { return swap_count_.load(); }

  /// Snapshots currently alive — published ones (stable AND staged
  /// candidates) plus retired ones still pinned by leases. The hot-swap
  /// and rollout tests use this as the leak check: once traffic drains
  /// it must equal `size()` plus the number of staged candidates.
  int64_t live_snapshots() const { return live_snapshots_->load(); }

 private:
  /// One route: the stable snapshot every request is served by unless a
  /// rollout is ramping, plus the optional staged candidate.
  struct RouteEntry {
    std::shared_ptr<const ModelSnapshot> stable;
    std::shared_ptr<const ModelSnapshot> candidate;  // Null outside rollouts.
    /// High-water mark of version numbers minted under this name —
    /// monotone even when a staged candidate is dropped, so a later
    /// publish can never reuse a rolled-back version number (stats
    /// health windows key on (model, version)).
    int64_t newest_version = 1;
  };

  std::shared_ptr<const ModelSnapshot> MakeSnapshot(
      const std::string& name, int64_t version, Ranker* base,
      std::unique_ptr<Ranker> owned_base) const;
  void Insert(const std::string& name, Ranker* base,
              std::unique_ptr<Ranker> owned_base, int64_t first_version = 1);

  DatasetMeta meta_;
  const Standardizer* standardizer_;
  ModelPoolOptions options_;

  mutable std::mutex mu_;  // Guards names_, entries_, default_name_.
  std::vector<std::string> names_;
  std::unordered_map<std::string, RouteEntry> entries_;
  std::string default_name_;

  /// Serialises UpdateModel publishers (held across read-version ->
  /// clone -> publish) so two concurrent publishes for one name cannot
  /// mint the same version number. Never taken under mu_; Acquire never
  /// takes it, so publishing does not stall serving.
  std::mutex publish_mu_;

  std::atomic<int64_t> swap_count_{0};
  mutable std::atomic<uint64_t> round_robin_{0};
  std::shared_ptr<std::atomic<int64_t>> live_snapshots_;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_MODEL_POOL_H_
