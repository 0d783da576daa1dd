#include "serving/model_pool.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <typeinfo>

#include "data/batcher.h"
#include "models/ranker.h"
#include "nn/inference.h"
#include "util/check.h"
#include "util/hash.h"

namespace awmoe {

namespace {

/// Per-entry bookkeeping overhead charged by the byte gauges on top of
/// the float/hash payload: list node + index node + the Entry struct
/// itself. An estimate (allocator slack is invisible), but a consistent
/// one, so capacity planning from the gauges errs on the small side by
/// a bounded constant per entry.
constexpr int64_t kCacheNodeOverheadBytes = 96;

/// Folds one variable-length section under a leading length tag, so two
/// records that differ only in where a section boundary falls can never
/// produce the same stream of mixed words.
template <typename Container, typename Word>
uint64_t MixSection(uint64_t h, const Container& values, Word to_word) {
  h = Fnv1a64Mix(h, static_cast<uint64_t>(values.size()));
  for (const auto& v : values) h = Fnv1a64Mix(h, to_word(v));
  return h;
}

uint64_t MixBehaviorSections(uint64_t h, const Example& ex) {
  auto id_word = [](int64_t v) { return static_cast<uint64_t>(v); };
  auto float_word = [](float f) {
    return static_cast<uint64_t>(std::bit_cast<uint32_t>(f));
  };
  h = MixSection(h, ex.behavior_items, id_word);
  h = MixSection(h, ex.behavior_cats, id_word);
  h = MixSection(h, ex.behavior_brands, id_word);
  h = MixSection(h, ex.behavior_attrs, float_word);
  return h;
}

}  // namespace

uint64_t GateContextHash(const Example& ex) {
  uint64_t h = kFnv1a64Offset;
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.user_id));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.query_id));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.query_cat));
  return MixBehaviorSections(h, ex);
}

uint64_t SessionHistoryHash(const Example& ex) {
  uint64_t h = kFnv1a64Offset;
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.user_id));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.age_segment));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.query_id));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.query_cat));
  return MixBehaviorSections(h, ex);
}

uint64_t CandidateScoreHash(const Example& ex) {
  // Session-constant inputs first, then every candidate-side field the
  // collated batch row carries. Equal hashes (modulo 64-bit collision)
  // mean equal rows mean bitwise-equal scores.
  uint64_t h = SessionHistoryHash(ex);
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.target_item));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.target_cat));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.target_brand));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(ex.target_shop));
  for (int64_t c = 0; c < Example::kItemAttrs; ++c) {
    h = Fnv1a64Mix(
        h, static_cast<uint64_t>(std::bit_cast<uint32_t>(ex.target_attrs[c])));
  }
  return MixSection(h, ex.numeric, [](float f) {
    return static_cast<uint64_t>(std::bit_cast<uint32_t>(f));
  });
}

// ---------------------------------------------------------------------
// SessionGateCache.
// ---------------------------------------------------------------------

CacheLookup SessionGateCache::Lookup(int64_t session_id,
                                     uint64_t context_hash,
                                     std::vector<float>* row) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(session_id);
  if (it == index_.end()) return CacheLookup::kMiss;
  if (it->second->context_hash != context_hash) {
    // Same session id, different gate inputs (e.g. the behaviour
    // sequence grew between pagination requests): drop the stale row so
    // the caller re-probes rather than serves it.
    bytes_ -= EntryBytes(*it->second);
    lru_.erase(it->second);
    index_.erase(it);
    return CacheLookup::kStale;
  }
  *row = it->second->row;
  lru_.splice(lru_.begin(), lru_, it->second);
  return CacheLookup::kHit;
}

void SessionGateCache::Put(int64_t session_id, uint64_t context_hash,
                           std::vector<float> row, int64_t capacity) {
  if (capacity <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(session_id);
  if (it != index_.end()) {
    // Keep at most one cached row per session id.
    bytes_ -= EntryBytes(*it->second);
    lru_.erase(it->second);
    index_.erase(it);
  }
  Entry entry;
  entry.session_id = session_id;
  entry.context_hash = context_hash;
  entry.row = std::move(row);
  bytes_ += EntryBytes(entry);
  lru_.push_front(std::move(entry));
  index_[session_id] = lru_.begin();
  while (static_cast<int64_t>(lru_.size()) > capacity) {
    bytes_ -= EntryBytes(lru_.back());
    index_.erase(lru_.back().session_id);
    lru_.pop_back();
  }
}

int64_t SessionGateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

int64_t SessionGateCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t SessionGateCache::EntryBytes(const Entry& entry) const {
  return static_cast<int64_t>(sizeof(Entry)) + kCacheNodeOverheadBytes +
         static_cast<int64_t>(entry.row.capacity() * sizeof(float));
}

// ---------------------------------------------------------------------
// SessionScoreCache.
// ---------------------------------------------------------------------

CacheLookup SessionScoreCache::Lookup(
    int64_t session_id, uint64_t set_hash, uint64_t history_hash,
    const std::vector<uint64_t>& item_hashes, std::span<float> out) {
  AWMOE_CHECK(out.size() >= item_hashes.size())
      << "score-cache output span " << out.size() << " for "
      << item_hashes.size() << " candidates";
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key{session_id, set_hash});
  if (it == index_.end()) {
    // No entry under this exact candidate set — but if the session's
    // OTHER entries carry an outdated history stamp (one stamp per
    // session, so checking the first suffices; ordered keys keep a
    // session contiguous), the user's history moved on: drop them all
    // NOW rather than letting stale pages linger until LRU eviction.
    auto first = index_.lower_bound(Key{session_id, 0});
    if (first != index_.end() && first->first.first == session_id &&
        first->second->history_hash != history_hash) {
      EraseSessionLocked(session_id);
      return CacheLookup::kStale;
    }
    return CacheLookup::kMiss;
  }
  Entry& entry = *it->second;
  if (entry.history_hash != history_hash) {
    // The session's behaviour history moved on since these scores were
    // computed. Put() keeps all of a session's entries on ONE history
    // stamp, so everything cached for the session is equally stale.
    EraseSessionLocked(session_id);
    return CacheLookup::kStale;
  }
  // Fill by per-candidate content hash (stored sorted): this both
  // recovers the request's candidate order and verifies the entry
  // really describes these candidates — a set-hash collision fails the
  // match and falls through to a miss.
  for (size_t j = 0; j < item_hashes.size(); ++j) {
    auto pos = std::lower_bound(entry.item_hashes.begin(),
                                entry.item_hashes.end(), item_hashes[j]);
    if (pos == entry.item_hashes.end() || *pos != item_hashes[j]) {
      return CacheLookup::kMiss;
    }
    out[j] = entry.scores[static_cast<size_t>(
        pos - entry.item_hashes.begin())];
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return CacheLookup::kHit;
}

void SessionScoreCache::Put(int64_t session_id, uint64_t set_hash,
                            uint64_t history_hash,
                            const std::vector<uint64_t>& item_hashes,
                            const std::vector<float>& scores,
                            int64_t capacity) {
  if (capacity <= 0) return;
  AWMOE_CHECK(item_hashes.size() == scores.size())
      << "score-cache put: " << item_hashes.size() << " hashes for "
      << scores.size() << " scores";
  // Sort (hash, score) pairs by hash so Lookup can binary-search.
  // Duplicate hashes are fine: duplicates have identical content, hence
  // identical scores, so which one a lookup lands on cannot matter.
  std::vector<size_t> order(item_hashes.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return item_hashes[a] < item_hashes[b];
  });
  Entry entry;
  entry.key = Key{session_id, set_hash};
  entry.history_hash = history_hash;
  entry.item_hashes.reserve(order.size());
  entry.scores.reserve(order.size());
  for (size_t idx : order) {
    entry.item_hashes.push_back(item_hashes[idx]);
    entry.scores.push_back(scores[idx]);
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Invariant: all live entries of a session share one history stamp.
  // A Put under a new history evicts the session's stale entries even
  // when no Lookup ever touched them.
  auto it = index_.lower_bound(Key{session_id, 0});
  while (it != index_.end() && it->first.first == session_id) {
    if (it->second->history_hash != history_hash ||
        it->first.second == set_hash) {
      bytes_ -= EntryBytes(*it->second);
      lru_.erase(it->second);
      it = index_.erase(it);
    } else {
      ++it;
    }
  }
  bytes_ += EntryBytes(entry);
  const Key key = entry.key;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  while (static_cast<int64_t>(lru_.size()) > capacity) {
    bytes_ -= EntryBytes(lru_.back());
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

int64_t SessionScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

int64_t SessionScoreCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t SessionScoreCache::EntryBytes(const Entry& entry) const {
  return static_cast<int64_t>(sizeof(Entry)) + kCacheNodeOverheadBytes +
         static_cast<int64_t>(entry.item_hashes.capacity() *
                              sizeof(uint64_t)) +
         static_cast<int64_t>(entry.scores.capacity() * sizeof(float));
}

void SessionScoreCache::EraseSessionLocked(int64_t session_id) {
  auto it = index_.lower_bound(Key{session_id, 0});
  while (it != index_.end() && it->first.first == session_id) {
    bytes_ -= EntryBytes(*it->second);
    lru_.erase(it->second);
    it = index_.erase(it);
  }
}

// ---------------------------------------------------------------------
// ReplicaLane.
// ---------------------------------------------------------------------

InferenceWorkspace* ReplicaLane::EnsureWorkspace(int64_t min_candidates) {
  if (workspace == nullptr || workspace->max_candidates() < min_candidates) {
    workspace = model->CreateInferenceWorkspace(min_candidates);
  }
  return workspace.get();
}

// ---------------------------------------------------------------------
// ModelSnapshot.
// ---------------------------------------------------------------------

ModelSnapshot::ModelSnapshot(
    std::string name, int64_t version, Ranker* base,
    std::unique_ptr<Ranker> owned_base, int replicas,
    const DatasetMeta& meta,
    std::shared_ptr<std::atomic<int64_t>> live_counter)
    : name_(std::move(name)),
      version_(version),
      live_counter_(std::move(live_counter)) {
  AWMOE_CHECK(base != nullptr) << "null model for '" << name_ << "'";
  AWMOE_CHECK(replicas >= 1) << "replicas " << replicas;
  traits_ = base->Traits(meta);
  traits_.share_gate = traits_.share_gate && traits_.gate_width > 0;
  if (!traits_.share_gate) traits_.gate_width = 0;
  traits_.share_encoding =
      traits_.share_encoding && traits_.encoding_width > 0;
  if (!traits_.share_encoding) traits_.encoding_width = 0;

  auto lane0 = std::make_unique<ReplicaLane>();
  lane0->model = base;
  lane0->owned = std::move(owned_base);
  lanes_.push_back(std::move(lane0));

  for (int r = 1; r < replicas; ++r) {
    std::unique_ptr<Ranker> clone = base->Clone();
    // Not cloneable: serve single-lane. The typeid guard catches a
    // subclass inheriting its base's Clone(): such a "clone" is a
    // different model (sliced overrides), and serving it on lanes
    // 1..N-1 would make scores depend on lane assignment.
    if (clone == nullptr || typeid(*clone) != typeid(*base)) break;
    auto lane = std::make_unique<ReplicaLane>();
    lane->model = clone.get();
    lane->owned = std::move(clone);
    lanes_.push_back(std::move(lane));
  }
  if (live_counter_ != nullptr) live_counter_->fetch_add(1);
}

ModelSnapshot::~ModelSnapshot() {
  if (live_counter_ != nullptr) live_counter_->fetch_sub(1);
}

CacheUsage ModelSnapshot::cache_usage() const {
  CacheUsage usage;
  usage.score_entries = score_cache_.size();
  usage.score_bytes = score_cache_.bytes();
  usage.encoding_entries = encoding_cache_.size();
  usage.encoding_bytes = encoding_cache_.bytes();
  usage.gate_entries = gate_cache_.size();
  usage.gate_bytes = gate_cache_.bytes();
  return usage;
}

int ModelSnapshot::ActiveLanes() const {
  int active = 0;
  for (const auto& lane : lanes_) {
    if (lane->active.load(std::memory_order_relaxed) > 0) ++active;
  }
  return active;
}

// ---------------------------------------------------------------------
// SnapshotLease.
// ---------------------------------------------------------------------

SnapshotLease::SnapshotLease(std::shared_ptr<const ModelSnapshot> snapshot,
                             int replica, int active_lanes, RolloutArm arm)
    : snapshot_(std::move(snapshot)),
      replica_(replica),
      active_lanes_(active_lanes),
      arm_(arm) {}

SnapshotLease::~SnapshotLease() { Release(); }

SnapshotLease::SnapshotLease(SnapshotLease&& other) noexcept
    : snapshot_(std::move(other.snapshot_)),
      replica_(other.replica_),
      active_lanes_(other.active_lanes_),
      arm_(other.arm_) {
  other.snapshot_ = nullptr;
}

SnapshotLease& SnapshotLease::operator=(SnapshotLease&& other) noexcept {
  if (this != &other) {
    Release();
    snapshot_ = std::move(other.snapshot_);
    replica_ = other.replica_;
    active_lanes_ = other.active_lanes_;
    arm_ = other.arm_;
    other.snapshot_ = nullptr;
  }
  return *this;
}

void SnapshotLease::Release() {
  if (snapshot_ != nullptr) {
    snapshot_->lane(replica_).active.fetch_sub(1);
    snapshot_ = nullptr;
  }
}

// ---------------------------------------------------------------------
// ModelPool.
// ---------------------------------------------------------------------

ModelPool::ModelPool(const DatasetMeta& meta,
                     const Standardizer* standardizer,
                     ModelPoolOptions options)
    : meta_(meta),
      standardizer_(standardizer),
      options_(options),
      live_snapshots_(std::make_shared<std::atomic<int64_t>>(0)) {
  AWMOE_CHECK(options_.replicas >= 1)
      << "ModelPool: replicas " << options_.replicas;
}

std::shared_ptr<const ModelSnapshot> ModelPool::MakeSnapshot(
    const std::string& name, int64_t version, Ranker* base,
    std::unique_ptr<Ranker> owned_base) const {
  return std::make_shared<const ModelSnapshot>(
      name, version, base, std::move(owned_base), options_.replicas, meta_,
      live_snapshots_);
}

void ModelPool::Insert(const std::string& name, Ranker* base,
                       std::unique_ptr<Ranker> owned_base,
                       int64_t first_version) {
  AWMOE_CHECK(!name.empty()) << "model name must be non-empty";
  AWMOE_CHECK(first_version >= 1)
      << "first_version " << first_version << " for '" << name << "'";
  std::shared_ptr<const ModelSnapshot> snapshot =
      MakeSnapshot(name, first_version, base, std::move(owned_base));
  std::lock_guard<std::mutex> lock(mu_);
  AWMOE_CHECK(entries_.find(name) == entries_.end())
      << "duplicate model name '" << name << "'";
  RouteEntry entry;
  entry.stable = std::move(snapshot);
  entry.newest_version = first_version;
  entries_.emplace(name, std::move(entry));
  names_.push_back(name);
  if (default_name_.empty()) default_name_ = name;
}

void ModelPool::Register(const std::string& name, Ranker* model) {
  AWMOE_CHECK(model != nullptr) << "null model for '" << name << "'";
  Insert(name, model, nullptr);
}

void ModelPool::RegisterOwned(const std::string& name,
                              std::unique_ptr<Ranker> model,
                              int64_t first_version) {
  AWMOE_CHECK(model != nullptr) << "null model for '" << name << "'";
  Ranker* base = model.get();
  Insert(name, base, std::move(model), first_version);
}

int64_t ModelPool::UpdateModel(const std::string& name,
                               std::unique_ptr<Ranker> model) {
  AWMOE_CHECK(model != nullptr) << "UpdateModel: null model for '" << name
                                << "'";
  // Publishers serialise on publish_mu_ (held across read-version ->
  // clone -> publish) so concurrent UpdateModels for one name cannot
  // mint duplicate version numbers; the replica cloning still happens
  // outside mu_, so publishing never stalls concurrent Acquires.
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  int64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    AWMOE_CHECK(it != entries_.end())
        << "UpdateModel: unknown model '" << name << "'";
    AWMOE_CHECK(it->second.candidate == nullptr)
        << "UpdateModel: '" << name
        << "' has a staged rollout candidate (v"
        << it->second.candidate->version()
        << "); promote or drop it before an atomic cutover";
    version = it->second.newest_version + 1;
  }
  Ranker* base = model.get();
  std::shared_ptr<const ModelSnapshot> next =
      MakeSnapshot(name, version, base, std::move(model));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Publish atomically; the displaced shared_ptr release outside the
    // lock below may run the old snapshot's destructor (if no lease
    // still pins it) without blocking concurrent Acquires.
    RouteEntry& entry = entries_[name];
    entry.stable.swap(next);
    entry.newest_version = version;
  }
  swap_count_.fetch_add(1);
  return version;
}

int64_t ModelPool::StageCandidate(const std::string& name,
                                  std::unique_ptr<Ranker> model) {
  AWMOE_CHECK(model != nullptr) << "StageCandidate: null model for '" << name
                                << "'";
  // Same publisher serialisation as UpdateModel: version minting and the
  // expensive replica cloning happen under publish_mu_ only, so staging
  // a candidate never stalls concurrent Acquires.
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  int64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    AWMOE_CHECK(it != entries_.end())
        << "StageCandidate: unknown model '" << name << "'";
    version = it->second.newest_version + 1;
  }
  Ranker* base = model.get();
  std::shared_ptr<const ModelSnapshot> next =
      MakeSnapshot(name, version, base, std::move(model));
  {
    std::lock_guard<std::mutex> lock(mu_);
    RouteEntry& entry = entries_[name];
    // A displaced previous candidate releases outside the lock.
    entry.candidate.swap(next);
    entry.newest_version = version;
  }
  return version;
}

int64_t ModelPool::PromoteCandidate(const std::string& name) {
  std::shared_ptr<const ModelSnapshot> retired;
  int64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    AWMOE_CHECK(it != entries_.end())
        << "PromoteCandidate: unknown model '" << name << "'";
    RouteEntry& entry = it->second;
    AWMOE_CHECK(entry.candidate != nullptr)
        << "PromoteCandidate: no candidate staged for '" << name << "'";
    version = entry.candidate->version();
    retired = std::move(entry.stable);
    entry.stable = std::move(entry.candidate);
    entry.candidate = nullptr;
  }
  // The old stable releases here, outside mu_; in-flight leases still
  // pin it until they drain.
  swap_count_.fetch_add(1);
  return version;
}

bool ModelPool::DropCandidate(const std::string& name) {
  std::shared_ptr<const ModelSnapshot> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    AWMOE_CHECK(it != entries_.end())
        << "DropCandidate: unknown model '" << name << "'";
    dropped = std::move(it->second.candidate);
    it->second.candidate = nullptr;
  }
  // Candidate leases already granted finish on the dropped snapshot; it
  // frees itself (replica clones and gate cache included) when the last
  // one releases.
  return dropped != nullptr;
}

int64_t ModelPool::WarmSessionGates(
    const std::string& name, RolloutArm arm,
    const std::vector<std::vector<const Example*>>& sessions,
    int64_t gate_cache_capacity) {
  if (gate_cache_capacity <= 0) return 0;
  const std::string resolved = ResolveName(name);
  std::shared_ptr<const ModelSnapshot> snapshot =
      arm == RolloutArm::kCandidate ? CandidateSnapshot(resolved)
                                    : CurrentSnapshot(resolved);
  if (snapshot == nullptr || !snapshot->traits().share_gate) return 0;
  const int64_t width = snapshot->traits().gate_width;

  // Score through lane 0's workspace. Warm-up typically runs before the
  // snapshot takes traffic, but racing live forwards is safe AND
  // bounded: the lane lock is taken per chunk, not across the whole
  // warm-up, so a concurrent micro-batch leased onto lane 0 waits for
  // at most one warm forward instead of the full session log.
  ReplicaLane& lane = snapshot->lane(0);
  constexpr int64_t kWarmChunk = 256;

  int64_t warmed = 0;
  std::vector<const Example*> probes;
  std::vector<int64_t> probe_sessions;
  auto flush = [&] {
    if (probes.empty()) return;
    Batch batch = CollateBatch(probes, meta_, standardizer_);
    std::lock_guard<std::mutex> lock(lane.mu);
    InferenceWorkspace* workspace = lane.EnsureWorkspace(kWarmChunk);
    std::span<float> rows = workspace->Staging(
        InferenceWorkspace::kGateProbe, batch.size * width);
    lane.model->GateInto(batch, workspace, rows);
    // Cache inserts stay under the lane lock: `rows` aliases workspace
    // staging, which the next forward on this lane may overwrite.
    for (int64_t i = 0; i < batch.size; ++i) {
      const float* row = rows.data() + i * width;
      snapshot->gate_cache().Put(
          probe_sessions[static_cast<size_t>(i)],
          GateContextHash(*probes[static_cast<size_t>(i)]),
          std::vector<float>(row, row + width), gate_cache_capacity);
      ++warmed;
    }
    probes.clear();
    probe_sessions.clear();
  };
  for (const std::vector<const Example*>& session : sessions) {
    if (session.empty()) continue;
    // One probe per session, from its first item — the engine's own
    // probe convention, so lookups validate against the same context.
    probes.push_back(session[0]);
    probe_sessions.push_back(session[0]->session_id);
    if (static_cast<int64_t>(probes.size()) >= kWarmChunk) flush();
  }
  flush();
  return warmed;
}

std::shared_ptr<const ModelSnapshot> ModelPool::CandidateSnapshot(
    const std::string& resolved_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(resolved_name);
  AWMOE_CHECK(it != entries_.end())
      << "unknown model '" << resolved_name << "'";
  return it->second.candidate;
}

int64_t ModelPool::CandidateVersion(const std::string& resolved_name) const {
  std::shared_ptr<const ModelSnapshot> candidate =
      CandidateSnapshot(resolved_name);
  return candidate == nullptr ? 0 : candidate->version();
}

bool ModelPool::HasCandidate(const std::string& resolved_name) const {
  return CandidateSnapshot(resolved_name) != nullptr;
}

void ModelPool::SetDefault(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  AWMOE_CHECK(entries_.find(name) != entries_.end())
      << "unknown model '" << name << "'";
  default_name_ = name;
}

Ranker* ModelPool::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.stable->primary();
}

bool ModelPool::TryResolveName(const std::string& name,
                               std::string* resolved) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (name.empty()) {
    if (default_name_.empty()) return false;
    // Copied under the lock: SetDefault may re-point the default route
    // concurrently, so a reference would read a string being replaced.
    *resolved = default_name_;
    return true;
  }
  if (entries_.find(name) == entries_.end()) return false;
  *resolved = name;
  return true;
}

std::string ModelPool::ResolveName(const std::string& name) const {
  std::string resolved;
  AWMOE_CHECK(TryResolveName(name, &resolved))
      << (name.empty() ? "empty ModelPool" : "unknown model '" + name + "'");
  return resolved;
}

std::string ModelPool::default_model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_name_;
}

size_t ModelPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

Ranker* ModelPool::Resolve(const std::string& name) const {
  return CurrentSnapshot(ResolveName(name))->primary();
}

std::shared_ptr<const ModelSnapshot> ModelPool::CurrentSnapshot(
    const std::string& resolved_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(resolved_name);
  AWMOE_CHECK(it != entries_.end())
      << "unknown model '" << resolved_name << "'";
  return it->second.stable;
}

SnapshotLease ModelPool::Acquire(const std::string& resolved_name) const {
  return Acquire(resolved_name, RolloutArm::kStable);
}

SnapshotLease ModelPool::Acquire(const std::string& resolved_name,
                                 RolloutArm arm) const {
  RolloutArm granted = RolloutArm::kStable;
  std::shared_ptr<const ModelSnapshot> snapshot =
      SnapshotForArm(resolved_name, arm, &granted);
  return LeaseLane(std::move(snapshot), granted);
}

std::shared_ptr<const ModelSnapshot> ModelPool::SnapshotForArm(
    const std::string& resolved_name, RolloutArm arm,
    RolloutArm* granted) const {
  std::shared_ptr<const ModelSnapshot> snapshot;
  RolloutArm got = RolloutArm::kStable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(resolved_name);
    AWMOE_CHECK(it != entries_.end())
        << "unknown model '" << resolved_name << "'";
    if (arm == RolloutArm::kCandidate && it->second.candidate != nullptr) {
      snapshot = it->second.candidate;
      got = RolloutArm::kCandidate;
    } else {
      // Candidate requested but none staged (e.g. the rollout rolled
      // back between routing and acquiring): serve stable.
      snapshot = it->second.stable;
    }
  }
  if (granted != nullptr) *granted = got;
  return snapshot;
}

SnapshotLease ModelPool::LeaseLane(
    std::shared_ptr<const ModelSnapshot> snapshot, RolloutArm granted) const {
  const int lanes = snapshot->num_replicas();
  // Least-loaded lane, round-robin on ties: N concurrent forwards for
  // one hot model spread across N distinct replicas.
  int pick = 0;
  if (lanes > 1) {
    const int start =
        static_cast<int>(round_robin_.fetch_add(1) % static_cast<uint64_t>(lanes));
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < lanes; ++i) {
      const int lane = (start + i) % lanes;
      const int64_t active =
          snapshot->lane(lane).active.load(std::memory_order_relaxed);
      if (active < best) {
        best = active;
        pick = lane;
      }
    }
  }
  ReplicaLane& lane = snapshot->lane(pick);
  lane.active.fetch_add(1);
  lane.leases.fetch_add(1);
  const int active_lanes = snapshot->ActiveLanes();
  return SnapshotLease(std::move(snapshot), pick, active_lanes, granted);
}

CacheUsage ModelPool::TotalCacheUsage() const {
  // Collect the snapshot pins under the lock, read the cache gauges
  // outside it (each cache takes its own mutex).
  std::vector<std::shared_ptr<const ModelSnapshot>> snapshots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) {
      if (entry.stable != nullptr) snapshots.push_back(entry.stable);
      if (entry.candidate != nullptr) snapshots.push_back(entry.candidate);
    }
  }
  CacheUsage total;
  for (const auto& snapshot : snapshots) total += snapshot->cache_usage();
  return total;
}

}  // namespace awmoe
