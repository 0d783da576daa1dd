#include "serving/shard.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "models/ranker.h"
#include "util/check.h"
#include "util/hash.h"

namespace awmoe {

// ---------------------------------------------------------------- ShardRouter

ShardRouter::ShardRouter(int vnodes_per_shard)
    : vnodes_per_shard_(vnodes_per_shard),
      ring_(std::make_shared<const Ring>()) {
  AWMOE_CHECK(vnodes_per_shard_ > 0)
      << "vnodes_per_shard " << vnodes_per_shard_;
}

uint64_t ShardRouter::SessionPoint(int64_t session_id) {
  return Mix64(static_cast<uint64_t>(session_id));
}

uint64_t ShardRouter::VnodePoint(int shard_id, int vnode) {
  uint64_t h = kFnv1a64Offset;
  h = Fnv1a64Mix(h, static_cast<uint64_t>(shard_id));
  h = Fnv1a64Mix(h, static_cast<uint64_t>(vnode));
  // FNV alone is weak in the high bits; the placement lookup compares
  // full 64-bit points, so finish with a full-avalanche mix.
  return Mix64(h);
}

std::shared_ptr<const ShardRouter::Ring> ShardRouter::RebuildLocked() const {
  auto ring = std::make_shared<Ring>();
  ring->reserve(shard_ids_.size() * static_cast<size_t>(vnodes_per_shard_));
  for (int shard : shard_ids_) {
    for (int vnode = 0; vnode < vnodes_per_shard_; ++vnode) {
      ring->push_back(Vnode{VnodePoint(shard, vnode), shard});
    }
  }
  // Tie-break on shard id so a (vanishingly unlikely) point collision
  // still orders deterministically.
  std::sort(ring->begin(), ring->end(), [](const Vnode& a, const Vnode& b) {
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
  return ring;
}

void ShardRouter::AddShard(int shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  AWMOE_CHECK(std::find(shard_ids_.begin(), shard_ids_.end(), shard_id) ==
              shard_ids_.end())
      << "duplicate shard id " << shard_id;
  shard_ids_.push_back(shard_id);
  std::sort(shard_ids_.begin(), shard_ids_.end());
  ring_ = RebuildLocked();
}

bool ShardRouter::RemoveShard(int shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(shard_ids_.begin(), shard_ids_.end(), shard_id);
  if (it == shard_ids_.end()) return false;
  shard_ids_.erase(it);
  ring_ = RebuildLocked();
  return true;
}

int ShardRouter::ShardFor(int64_t session_id) const {
  std::shared_ptr<const Ring> ring;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring = ring_;
  }
  AWMOE_CHECK(!ring->empty()) << "ShardFor on an empty ring";
  const uint64_t point = SessionPoint(session_id);
  // Clockwise successor: first vnode at or after the session's point,
  // wrapping to the ring's start past the top.
  auto it = std::lower_bound(
      ring->begin(), ring->end(), point,
      [](const Vnode& vnode, uint64_t p) { return vnode.point < p; });
  if (it == ring->end()) it = ring->begin();
  return it->shard;
}

bool ShardRouter::HasShard(int shard_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::find(shard_ids_.begin(), shard_ids_.end(), shard_id) !=
         shard_ids_.end();
}

int ShardRouter::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(shard_ids_.size());
}

std::vector<int> ShardRouter::shard_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shard_ids_;
}

// ------------------------------------------------------- AdmissionController

double MeanServiceEstimator::Update(int64_t requests, double service_ms) {
  const int64_t delta_requests = requests - last_requests_;
  if (delta_requests < 0 || service_ms < last_service_ms_) {
    // The counters moved backwards: the engine's stats were reset under
    // us. Resync the baseline so the NEXT window measures fresh deltas;
    // without this the old (higher) baseline could never be caught up
    // to and the estimate would stay frozen forever.
    last_requests_ = requests;
    last_service_ms_ = service_ms;
    return mean_ms_;
  }
  if (delta_requests == 0) {
    // Idle window: no completions to measure. Dividing would yield
    // NaN (0/0) or garbage; keep the last good estimate instead.
    return mean_ms_;
  }
  mean_ms_ = std::max(
      (service_ms - last_service_ms_) / static_cast<double>(delta_requests),
      0.0);
  last_requests_ = requests;
  last_service_ms_ = service_ms;
  return mean_ms_;
}

void MeanServiceEstimator::Reset() {
  last_requests_ = 0;
  last_service_ms_ = 0.0;
  mean_ms_ = 0.0;
}

double EstimateQueueDelayMs(const ShardLoad& load) {
  const int lanes = std::max(1, load.flush_lanes);
  return static_cast<double>(load.pending_requests) * load.mean_service_ms /
         static_cast<double>(lanes);
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  AWMOE_CHECK(options_.shed_window > 0)
      << "shed_window " << options_.shed_window;
  AWMOE_CHECK(options_.max_shed_rate >= 0.0 && options_.max_shed_rate <= 1.0)
      << "max_shed_rate " << options_.max_shed_rate;
  AWMOE_CHECK(options_.load_refresh_every > 0)
      << "load_refresh_every " << options_.load_refresh_every;
  AWMOE_CHECK(options_.estimate_safety > 0.0)
      << "estimate_safety " << options_.estimate_safety;
  window_.assign(static_cast<size_t>(options_.shed_window), 0);
}

AdmissionDecision AdmissionController::Decide(const ShardLoad& load,
                                              double deadline_ms) {
  if (!options_.enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    ++admitted_;
    return AdmissionDecision::kAdmit;
  }
  const double deadline =
      deadline_ms > 0.0 ? deadline_ms : options_.default_deadline_ms;
  // The request's expected sojourn: drain the queue ahead of it, then
  // its own service time, widened by the safety multiplier (the raw
  // estimate cannot see the in-flight batch).
  // Estimated BEFORE enqueueing, so a shed costs the caller
  // microseconds, not a blown deadline.
  const bool over =
      options_.estimate_safety *
          (EstimateQueueDelayMs(load) + load.mean_service_ms) >
      deadline;

  std::lock_guard<std::mutex> lock(mu_);
  AdmissionDecision decision = AdmissionDecision::kAdmit;
  if (over) {
    // The availability floor: once the sliding window already sheds at
    // max_shed_rate, admit over-deadline traffic as degraded instead —
    // an overloaded fleet serves slowly rather than going dark.
    const double rate =
        window_filled_ == 0
            ? 0.0
            : static_cast<double>(window_shed_) /
                  static_cast<double>(window_filled_);
    // max_shed_rate >= 1.0 disables the floor entirely (a fully-shed
    // window would otherwise reach rate == 1.0 and start degrading).
    decision = options_.max_shed_rate < 1.0 && rate >= options_.max_shed_rate
                   ? AdmissionDecision::kDegraded
                   : AdmissionDecision::kShed;
  }
  const uint8_t outcome = decision == AdmissionDecision::kShed ? 1 : 0;
  if (window_filled_ == static_cast<int64_t>(window_.size())) {
    window_shed_ -= window_[window_next_];
  } else {
    ++window_filled_;
  }
  window_shed_ += outcome;
  window_[window_next_] = outcome;
  window_next_ = (window_next_ + 1) % window_.size();
  switch (decision) {
    case AdmissionDecision::kAdmit:
      ++admitted_;
      break;
    case AdmissionDecision::kShed:
      ++shed_;
      break;
    case AdmissionDecision::kDegraded:
      ++degraded_;
      break;
  }
  return decision;
}

int64_t AdmissionController::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

int64_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

int64_t AdmissionController::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

double AdmissionController::window_shed_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_filled_ == 0 ? 0.0
                             : static_cast<double>(window_shed_) /
                                   static_cast<double>(window_filled_);
}

void AdmissionController::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  admitted_ = 0;
  shed_ = 0;
  degraded_ = 0;
  std::fill(window_.begin(), window_.end(), 0);
  window_next_ = 0;
  window_filled_ = 0;
  window_shed_ = 0;
}

// ------------------------------------------------------- ShardedServingFleet

/// One shard: its own pool (replica lanes, gate caches), engine (async
/// queue, stats, rollout router) and admission state. The pool is
/// declared before the engine so the engine — which references the pool
/// — is destroyed first. Held by shared_ptr so an in-flight Submit that
/// copied the pointer keeps the shard alive across a concurrent
/// RemoveShard.
struct ShardedServingFleet::FleetShard {
  FleetShard(int shard_id, const DatasetMeta& meta,
             const Standardizer* standardizer, const FleetOptions& options)
      : id(shard_id),
        pool(std::make_unique<ModelPool>(meta, standardizer, options.pool)),
        engine(std::make_unique<ServingEngine>(pool.get(), options.engine)),
        admission(options.admission) {}

  const int id;
  std::unique_ptr<ModelPool> pool;
  std::unique_ptr<ServingEngine> engine;
  AdmissionController admission;

  /// Sliding service-time estimate (CurrentLoad): refreshed from the
  /// engine counters every load_refresh_every admission decisions. The
  /// estimator handles the idle-window / reset-counter edge cases
  /// (see MeanServiceEstimator in shard.h).
  std::mutex load_mu;
  int decisions_until_refresh = 0;
  MeanServiceEstimator service_estimate;
};

namespace {

/// Clones a fleet master model for one shard's pool; fleets require
/// clonable models (the whole point is N independent copies).
std::unique_ptr<Ranker> CloneMaster(const Ranker& master,
                                    const std::string& name) {
  std::unique_ptr<Ranker> clone = master.Clone();
  AWMOE_CHECK(clone != nullptr)
      << "fleet model '" << name
      << "' must support Ranker::Clone to fan out across shards";
  return clone;
}

}  // namespace

ShardedServingFleet::ShardedServingFleet(const DatasetMeta& meta,
                                         const Standardizer* standardizer,
                                         FleetOptions options)
    : options_(std::move(options)),
      meta_(meta),
      standardizer_(standardizer),
      router_(options_.vnodes_per_shard) {
  AWMOE_CHECK(options_.num_shards >= 1)
      << "num_shards " << options_.num_shards;
  std::lock_guard<std::mutex> lock(ops_mu_);
  for (int i = 0; i < options_.num_shards; ++i) AddShardLocked();
}

ShardedServingFleet::~ShardedServingFleet() { Stop(/*drain=*/true); }

int ShardedServingFleet::AddShardLocked() {
  const int id = next_shard_id_++;
  auto shard =
      std::make_shared<FleetShard>(id, meta_, standardizer_, options_);
  // Replay the fleet's publish history so the new shard's pool mints
  // the SAME version numbers as its siblings — stats and rollout health
  // key on (model, version). Stable lands at its fleet version;
  // stage-and-drop cycles burn through versions consumed by finished
  // rollouts (the pool's newest_version is a monotone high-water mark);
  // an active candidate is then re-staged at its exact fleet version.
  for (auto& [name, master] : masters_) {
    shard->pool->RegisterOwned(name, CloneMaster(*master.stable, name),
                               master.stable_version);
    const int64_t pre_stage_newest = master.candidate_version > 0
                                         ? master.candidate_version - 1
                                         : master.newest_version;
    for (int64_t v = master.stable_version; v < pre_stage_newest; ++v) {
      shard->pool->StageCandidate(name, CloneMaster(*master.stable, name));
      shard->pool->DropCandidate(name);
    }
    if (master.candidate_version > 0) {
      const int64_t staged =
          shard->pool->StageCandidate(name, CloneMaster(*master.candidate,
                                                        name));
      AWMOE_CHECK(staged == master.candidate_version)
          << "shard " << id << " staged '" << name << "' at v" << staged
          << ", fleet candidate is v" << master.candidate_version;
    }
    if (master.split_permille >= 0) {
      shard->engine->router()->SetSplit(name, master.split_permille);
    }
  }
  if (!default_model_.empty()) shard->pool->SetDefault(default_model_);
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards_.emplace(id, std::move(shard));
  }
  // Ring last: the shard only starts receiving sessions once it is
  // fully provisioned and findable in the map.
  router_.AddShard(id);
  return id;
}

int ShardedServingFleet::AddShard() {
  std::lock_guard<std::mutex> lock(ops_mu_);
  return AddShardLocked();
}

bool ShardedServingFleet::RemoveShard(int shard_id, bool drain) {
  std::lock_guard<std::mutex> ops(ops_mu_);
  std::shared_ptr<FleetShard> shard;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    auto it = shards_.find(shard_id);
    if (it == shards_.end()) return false;
    AWMOE_CHECK(shards_.size() > 1)
        << "removing shard " << shard_id << " would empty the fleet";
    shard = it->second;
  }
  // Ring FIRST, so no new session routes here; a Submit that read the
  // ring just before re-routes when the map lookup comes up empty (see
  // ShardForSessionPtr).
  router_.RemoveShard(shard_id);
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards_.erase(shard_id);
  }
  // Stop outside the locks: draining blocks until queued requests
  // finish. In-flight Submits holding the shared_ptr resolve normally
  // (or with kUnavailable once stopped); the shard frees when the last
  // reference drops.
  shard->engine->Stop(drain);
  return true;
}

void ShardedServingFleet::RegisterOwned(const std::string& name,
                                        std::unique_ptr<Ranker> model) {
  AWMOE_CHECK(model != nullptr) << "null model for '" << name << "'";
  std::lock_guard<std::mutex> lock(ops_mu_);
  AWMOE_CHECK(masters_.find(name) == masters_.end())
      << "duplicate fleet model '" << name << "'";
  for (const auto& shard : AllShards()) {
    shard->pool->RegisterOwned(name, CloneMaster(*model, name));
  }
  MasterModel master;
  master.stable = std::move(model);
  masters_.emplace(name, std::move(master));
  if (default_model_.empty()) default_model_ = name;
}

int64_t ShardedServingFleet::UpdateModel(const std::string& name,
                                         std::unique_ptr<Ranker> model) {
  AWMOE_CHECK(model != nullptr) << "null model for '" << name << "'";
  std::lock_guard<std::mutex> lock(ops_mu_);
  auto it = masters_.find(name);
  AWMOE_CHECK(it != masters_.end()) << "unknown fleet model '" << name << "'";
  AWMOE_CHECK(it->second.candidate_version == 0)
      << "candidate staged for '" << name
      << "': promote or drop the rollout before UpdateModel";
  int64_t version = 0;
  for (const auto& shard : AllShards()) {
    const int64_t v = shard->pool->UpdateModel(name, CloneMaster(*model, name));
    AWMOE_CHECK(version == 0 || version == v)
        << "version divergence publishing '" << name << "': v" << version
        << " vs v" << v << " on shard " << shard->id;
    version = v;
  }
  it->second.stable = std::move(model);
  it->second.stable_version = version;
  it->second.newest_version = version;
  return version;
}

int64_t ShardedServingFleet::StageCandidate(const std::string& name,
                                            std::unique_ptr<Ranker> model) {
  AWMOE_CHECK(model != nullptr) << "null model for '" << name << "'";
  std::lock_guard<std::mutex> lock(ops_mu_);
  auto it = masters_.find(name);
  AWMOE_CHECK(it != masters_.end()) << "unknown fleet model '" << name << "'";
  int64_t version = 0;
  for (const auto& shard : AllShards()) {
    const int64_t v =
        shard->pool->StageCandidate(name, CloneMaster(*model, name));
    AWMOE_CHECK(version == 0 || version == v)
        << "version divergence staging '" << name << "': v" << version
        << " vs v" << v << " on shard " << shard->id;
    version = v;
  }
  it->second.candidate = std::move(model);
  it->second.candidate_version = version;
  it->second.newest_version = version;
  return version;
}

int64_t ShardedServingFleet::PromoteCandidate(const std::string& name) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  auto it = masters_.find(name);
  AWMOE_CHECK(it != masters_.end()) << "unknown fleet model '" << name << "'";
  AWMOE_CHECK(it->second.candidate_version > 0)
      << "no candidate staged for '" << name << "'";
  int64_t version = 0;
  for (const auto& shard : AllShards()) {
    const int64_t v = shard->pool->PromoteCandidate(name);
    AWMOE_CHECK(version == 0 || version == v)
        << "version divergence promoting '" << name << "'";
    version = v;
    shard->engine->router()->ClearSplit(name);
  }
  it->second.stable = std::move(it->second.candidate);
  it->second.stable_version = version;
  it->second.candidate_version = 0;
  it->second.split_permille = -1;
  return version;
}

bool ShardedServingFleet::DropCandidate(const std::string& name) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  auto it = masters_.find(name);
  AWMOE_CHECK(it != masters_.end()) << "unknown fleet model '" << name << "'";
  if (it->second.candidate_version == 0) return false;
  for (const auto& shard : AllShards()) {
    shard->pool->DropCandidate(name);
    shard->engine->router()->ClearSplit(name);
  }
  it->second.candidate.reset();
  it->second.candidate_version = 0;  // newest_version keeps the high water.
  it->second.split_permille = -1;
  return true;
}

void ShardedServingFleet::SetSplit(const std::string& name, int permille) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  auto it = masters_.find(name);
  AWMOE_CHECK(it != masters_.end()) << "unknown fleet model '" << name << "'";
  for (const auto& shard : AllShards()) {
    shard->engine->router()->SetSplit(name, permille);
  }
  it->second.split_permille = permille;
}

void ShardedServingFleet::ClearSplit(const std::string& name) {
  std::lock_guard<std::mutex> lock(ops_mu_);
  auto it = masters_.find(name);
  AWMOE_CHECK(it != masters_.end()) << "unknown fleet model '" << name << "'";
  for (const auto& shard : AllShards()) {
    shard->engine->router()->ClearSplit(name);
  }
  it->second.split_permille = -1;
}

std::shared_ptr<ShardedServingFleet::FleetShard> ShardedServingFleet::Shard(
    int shard_id) const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  auto it = shards_.find(shard_id);
  return it == shards_.end() ? nullptr : it->second;
}

std::shared_ptr<ShardedServingFleet::FleetShard>
ShardedServingFleet::ShardForSessionPtr(int64_t session_id) const {
  for (;;) {
    std::shared_ptr<FleetShard> shard = Shard(router_.ShardFor(session_id));
    if (shard != nullptr) return shard;
    // Raced a RemoveShard between the ring read and the map lookup; the
    // ring was already updated (RemoveShard orders it first), so the
    // retry resolves to a surviving shard.
  }
}

std::vector<std::shared_ptr<ShardedServingFleet::FleetShard>>
ShardedServingFleet::AllShards() const {
  std::vector<std::shared_ptr<FleetShard>> shards;
  std::lock_guard<std::mutex> lock(shards_mu_);
  shards.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) shards.push_back(shard);
  return shards;
}

ShardLoad ShardedServingFleet::CurrentLoad(FleetShard* shard) const {
  ShardLoad load;
  load.pending_requests = shard->engine->pending_async_requests();
  load.flush_lanes = options_.engine.async_flush_lanes > 0
                         ? options_.engine.async_flush_lanes
                         : shard->pool->replicas();
  std::lock_guard<std::mutex> lock(shard->load_mu);
  if (--shard->decisions_until_refresh <= 0) {
    shard->decisions_until_refresh = options_.admission.load_refresh_every;
    const ServingStats& stats = shard->engine->stats();
    // Service time = sojourn minus queue wait: what one flush lane
    // spends per request, which is what sets the queue's drain rate.
    // Idle windows and reset counters are the estimator's problem.
    shard->service_estimate.Update(
        stats.requests(), stats.total_ms() - stats.queue_total_ms());
  }
  load.mean_service_ms = shard->service_estimate.estimate();
  return load;
}

RankResponse ShardedServingFleet::Rank(const RankRequest& request) {
  return ShardForSessionPtr(request.session_id)->engine->Rank(request);
}

std::future<RankResponse> ShardedServingFleet::Submit(RankRequest request) {
  std::shared_ptr<FleetShard> shard = ShardForSessionPtr(request.session_id);
  std::string resolved;
  if (!shard->pool->TryResolveName(request.model, &resolved)) {
    // An unknown model is a client error, not load: the engine answers
    // it kNotFound without queueing it, and no shed is counted.
    return shard->engine->Submit(std::move(request));
  }
  const ShardLoad load = CurrentLoad(shard.get());
  const AdmissionDecision decision =
      shard->admission.Decide(load, request.deadline_ms);
  if (decision == AdmissionDecision::kShed) {
    RankResponse response;
    response.session_id = request.session_id;
    response.model = std::move(resolved);
    const double deadline = request.deadline_ms > 0.0
                                ? request.deadline_ms
                                : options_.admission.default_deadline_ms;
    std::ostringstream msg;
    msg << "fleet admission: shard " << shard->id
        << " estimated queue delay " << EstimateQueueDelayMs(load)
        << " ms would blow the " << deadline << " ms deadline";
    response.status = Status::ResourceExhausted(msg.str());
    // Shed outcomes are NOT recorded into version health: shedding is a
    // load condition, not a model fault (a rollout gate must not count
    // overload against the candidate arm).
    std::promise<RankResponse> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
  }
  return shard->engine->Submit(std::move(request));
}

FleetStats ShardedServingFleet::Stats() const {
  FleetStats fleet;
  ServingStats sink;  // MergeFrom aggregation sink (see serving_stats.h).
  int64_t max_requests = 0;
  int64_t total_requests = 0;
  int64_t model_swaps = 0;
  const auto shards = AllShards();
  for (const auto& shard : shards) {
    ShardStatsSnapshot snap;
    snap.shard_id = shard->id;
    snap.admitted = shard->admission.admitted();
    snap.shed = shard->admission.shed();
    snap.degraded = shard->admission.degraded();
    snap.pending_requests = shard->engine->pending_async_requests();
    {
      std::lock_guard<std::mutex> lock(shard->load_mu);
      snap.mean_service_ms = shard->service_estimate.estimate();
    }
    snap.engine = shard->engine->Stats();
    fleet.admitted += snap.admitted;
    fleet.shed += snap.shed;
    fleet.degraded += snap.degraded;
    max_requests = std::max(max_requests, snap.engine.requests);
    total_requests += snap.engine.requests;
    model_swaps = std::max(model_swaps, snap.engine.model_swaps);
    sink.MergeFrom(snap.engine);
    fleet.shards.push_back(std::move(snap));
  }
  fleet.merged = sink.Snapshot();
  // Fan-out repeats each publish on every shard: fleet-level swaps are
  // the max, not the sum.
  fleet.merged.model_swaps = model_swaps;
  const int64_t decisions = fleet.admitted + fleet.shed + fleet.degraded;
  if (decisions > 0) {
    fleet.shed_rate =
        static_cast<double>(fleet.shed) / static_cast<double>(decisions);
  }
  if (total_requests > 0 && !shards.empty()) {
    const double mean = static_cast<double>(total_requests) /
                        static_cast<double>(shards.size());
    fleet.imbalance = static_cast<double>(max_requests) / mean;
  }
  return fleet;
}

void ShardedServingFleet::ResetStats() {
  for (const auto& shard : AllShards()) {
    shard->engine->ResetStats();
    shard->admission.Reset();
    std::lock_guard<std::mutex> lock(shard->load_mu);
    shard->decisions_until_refresh = 0;
    shard->service_estimate.Reset();
  }
}

void ShardedServingFleet::Stop(bool drain) {
  for (const auto& shard : AllShards()) shard->engine->Stop(drain);
}

int64_t ShardedServingFleet::live_snapshots() const {
  int64_t live = 0;
  for (const auto& shard : AllShards()) live += shard->pool->live_snapshots();
  return live;
}

int ShardedServingFleet::num_shards() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  return static_cast<int>(shards_.size());
}

std::vector<int> ShardedServingFleet::shard_ids() const {
  std::vector<int> ids;
  std::lock_guard<std::mutex> lock(shards_mu_);
  ids.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) ids.push_back(id);
  return ids;
}

ServingEngine* ShardedServingFleet::engine(int shard_id) const {
  std::shared_ptr<FleetShard> shard = Shard(shard_id);
  return shard == nullptr ? nullptr : shard->engine.get();
}

ModelPool* ShardedServingFleet::pool(int shard_id) const {
  std::shared_ptr<FleetShard> shard = Shard(shard_id);
  return shard == nullptr ? nullptr : shard->pool.get();
}

const AdmissionController* ShardedServingFleet::admission(
    int shard_id) const {
  std::shared_ptr<FleetShard> shard = Shard(shard_id);
  return shard == nullptr ? nullptr : &shard->admission;
}

}  // namespace awmoe
