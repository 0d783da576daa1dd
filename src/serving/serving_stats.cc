#include "serving/serving_stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace awmoe {

namespace {

/// Nearest-rank percentile over an ascending-sorted sample vector: the
/// smallest sample with at least pct% of the mass at or below it.
double NearestRank(const std::vector<double>& sorted, double pct) {
  AWMOE_CHECK(pct > 0.0 && pct <= 100.0) << "percentile " << pct;
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  rank = std::max<size_t>(rank, 1);
  return sorted[rank - 1];
}

/// Shared retention policy of the per-(model, version) maps (lease
/// breakdown and health windows): after `inserted` was added, drop
/// `model`'s oldest entries beyond `max_versions`. The map key orders
/// one model's entries by ascending version, so trimming drops from the
/// oldest end. Returns true when the just-inserted entry itself was the
/// oldest and got dropped — the caller must not touch it then.
template <typename Map>
bool TrimModelVersions(Map* map, const std::string& model,
                       typename Map::iterator inserted, int max_versions) {
  bool erased_inserted = false;
  auto first = map->lower_bound({model, 0});
  int count = 0;
  for (auto walk = first; walk != map->end() && walk->first.first == model;
       ++walk) {
    ++count;
  }
  while (count > max_versions && first != map->end() &&
         first->first.first == model) {
    if (first == inserted) erased_inserted = true;
    first = map->erase(first);
    --count;
  }
  return erased_inserted;
}

}  // namespace

void ServingStats::RecordRequestLocked(int64_t items, double latency_ms) {
  if (!wall_started_) {
    // The clock starts when serving starts, not at construction; this
    // is the first completion, so backdate by this request's latency to
    // include its service time in the QPS window.
    wall_.Restart();
    wall_started_ = true;
    wall_offset_s_ = latency_ms / 1e3;
  }
  ++requests_;
  items_ += items;
  total_ms_ += latency_ms;
  if (static_cast<int64_t>(samples_ms_.size()) < kMaxSamples) {
    samples_ms_.push_back(latency_ms);
    return;
  }
  // Reservoir sampling (Algorithm R): keep each of the `requests_`
  // samples with equal probability in O(kMaxSamples) memory.
  reservoir_rng_ ^= reservoir_rng_ << 13;
  reservoir_rng_ ^= reservoir_rng_ >> 7;
  reservoir_rng_ ^= reservoir_rng_ << 17;
  const uint64_t slot =
      reservoir_rng_ % static_cast<uint64_t>(requests_);
  if (slot < static_cast<uint64_t>(kMaxSamples)) {
    samples_ms_[static_cast<size_t>(slot)] = latency_ms;
  }
}

void ServingStats::RecordBatchLocked(int64_t batch_requests,
                                     int64_t batch_items) {
  ++batches_;
  batch_requests_ += batch_requests;
  batch_items_ += batch_items;
  max_batch_requests_ = std::max(max_batch_requests_, batch_requests);
}

void ServingStats::RecordQueueDelayLocked(double delay_ms) {
  ++queued_requests_;
  queue_total_ms_ += delay_ms;
  queue_max_ms_ = std::max(queue_max_ms_, delay_ms);
}

void ServingStats::RecordGateLookupLocked(bool hit) {
  if (hit) {
    ++gate_cache_hits_;
  } else {
    ++gate_cache_misses_;
  }
}

void ServingStats::RecordScoreLookupLocked(int outcome) {
  if (outcome == 1) {
    ++score_cache_hits_;
  } else {
    ++score_cache_misses_;
    if (outcome == 2) ++score_cache_invalidations_;
  }
}

void ServingStats::RecordEncodingLookupLocked(int outcome) {
  if (outcome == 1) {
    ++encoding_cache_hits_;
  } else {
    ++encoding_cache_misses_;
    if (outcome == 2) ++encoding_cache_invalidations_;
  }
}

void ServingStats::AppendSplitSampleLocked(std::vector<double>* reservoir,
                                           int64_t* count,
                                           double latency_ms) {
  ++*count;
  if (static_cast<int64_t>(reservoir->size()) < kMaxSamples) {
    reservoir->push_back(latency_ms);
    return;
  }
  reservoir_rng_ ^= reservoir_rng_ << 13;
  reservoir_rng_ ^= reservoir_rng_ >> 7;
  reservoir_rng_ ^= reservoir_rng_ << 17;
  const uint64_t slot = reservoir_rng_ % static_cast<uint64_t>(*count);
  if (slot < static_cast<uint64_t>(kMaxSamples)) {
    (*reservoir)[static_cast<size_t>(slot)] = latency_ms;
  }
}

void ServingStats::RecordLeaseLocked(const LeaseSample& lease) {
  ++snapshot_leases_;
  active_lanes_total_ += lease.active_lanes;
  max_active_lanes_ =
      std::max(max_active_lanes_, static_cast<int64_t>(lease.active_lanes));
  auto [it, inserted] =
      version_lane_leases_.try_emplace({lease.model, lease.version});
  if (inserted &&
      TrimModelVersions(&version_lane_leases_, lease.model, it,
                        kMaxVersionsPerModel)) {
    // A lease on a version older than every retained one: refuse to
    // resurrect its entry (mirrors the health-window policy).
    return;
  }
  std::vector<int64_t>& lanes = it->second;
  if (static_cast<int>(lanes.size()) < lease.num_replicas) {
    lanes.resize(static_cast<size_t>(lease.num_replicas), 0);
  }
  ++lanes[static_cast<size_t>(lease.replica)];
}

void ServingStats::RecordSlateBatch(std::span<const int64_t> slate_sizes,
                                    double rerank_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t size : slate_sizes) {
    ++slates_;
    slate_items_ += size;
    if (size <= 10) {
      ++slates_le10_;
    } else if (size <= 25) {
      ++slates_le25_;
    } else if (size <= 50) {
      ++slates_le50_;
    } else {
      ++slates_gt50_;
    }
  }
  AppendSplitSampleLocked(&rerank_samples_ms_, &rerank_count_, rerank_ms);
}

void ServingStats::RecordVersionSample(const std::string& model,
                                       int64_t version, double latency_ms,
                                       bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  HealthWindow* window = HealthWindowLocked(model, version);
  if (window != nullptr) AppendHealthSampleLocked(window, latency_ms, ok);
}

void ServingStats::RecordDriftSample(const std::string& model,
                                     int64_t version, bool engaged) {
  std::lock_guard<std::mutex> lock(mu_);
  ++drift_sessions_;
  if (engaged) ++drift_engaged_;
  HealthWindow* window = HealthWindowLocked(model, version);
  if (window == nullptr) return;  // Older than every retained version.
  ++window->drift_sessions;
  if (engaged) ++window->drift_engaged;
}

void ServingStats::ResetDriftCounters(const std::string& model,
                                      int64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = version_health_.find({model, version});
  if (it == version_health_.end()) return;
  it->second.drift_sessions = 0;
  it->second.drift_engaged = 0;
}

ServingStats::HealthWindow* ServingStats::HealthWindowLocked(
    const std::string& model, int64_t version) {
  auto [it, inserted] = version_health_.try_emplace({model, version});
  if (inserted &&
      TrimModelVersions(&version_health_, model, it, kMaxVersionsPerModel)) {
    // The trim dropped the entry just inserted (a version older than
    // every retained one): the sample belongs to a window we refuse to
    // resurrect — report that instead of handing out a freed node.
    return nullptr;
  }
  return &it->second;
}

void ServingStats::AppendHealthSampleLocked(HealthWindow* window,
                                            double latency_ms, bool ok) {
  ++window->requests;
  if (!ok) {
    ++window->errors;
  } else if (static_cast<int64_t>(window->ring.size()) < kHealthWindow) {
    window->ring.push_back(latency_ms);
  } else {
    // Sliding window, not a reservoir: the rollout gate wants the
    // version's CURRENT tail, so the oldest sample is the one evicted.
    window->ring[window->next] = latency_ms;
    window->next = (window->next + 1) % static_cast<size_t>(kHealthWindow);
  }
}

VersionHealthSnapshot ServingStats::HealthSnapshotOf(const std::string& model,
                                                     int64_t version,
                                                     HealthWindow window) {
  VersionHealthSnapshot snap;
  snap.model = model;
  snap.version = version;
  snap.requests = window.requests;
  snap.errors = window.errors;
  if (window.requests > 0) {
    snap.error_rate = static_cast<double>(window.errors) /
                      static_cast<double>(window.requests);
  }
  snap.drift_sessions = window.drift_sessions;
  snap.drift_engaged = window.drift_engaged;
  if (window.drift_sessions > 0) {
    snap.drift_engaged_rate = static_cast<double>(window.drift_engaged) /
                              static_cast<double>(window.drift_sessions);
  }
  snap.window = static_cast<int64_t>(window.ring.size());
  if (!window.ring.empty()) {
    std::sort(window.ring.begin(), window.ring.end());
    snap.p50_ms = NearestRank(window.ring, 50.0);
    snap.p99_ms = NearestRank(window.ring, 99.0);
  }
  return snap;
}

VersionHealthSnapshot ServingStats::VersionHealth(const std::string& model,
                                                  int64_t version) const {
  HealthWindow copy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = version_health_.find({model, version});
    if (it != version_health_.end()) copy = it->second;
  }
  // Sort outside the lock (same pattern as LatencyPercentileMs): the
  // rollout gate polls this while workers record into the same mutex.
  return HealthSnapshotOf(model, version, std::move(copy));
}

void ServingStats::RecordMicroBatch(
    int64_t batch_items, const std::vector<RequestSample>& samples,
    const LeaseSample* lease) {
  std::lock_guard<std::mutex> lock(mu_);
  // A fully score-cache-served micro-batch leased no lane and ran no
  // forward pass: the batch (occupancy) and lease counters would
  // misreport it as compute.
  const bool forward_ran = lease == nullptr || lease->lane_leased;
  if (forward_ran) {
    RecordBatchLocked(static_cast<int64_t>(samples.size()), batch_items);
  }
  // One map probe for the whole micro-batch: every sample lands in the
  // same (model, version) health window as the shared lease.
  HealthWindow* health =
      lease == nullptr ? nullptr
                       : HealthWindowLocked(lease->model, lease->version);
  for (const RequestSample& sample : samples) {
    RecordRequestLocked(sample.items, sample.latency_ms);
    if (sample.queue_ms >= 0.0) RecordQueueDelayLocked(sample.queue_ms);
    if (sample.gate_lookup >= 0) RecordGateLookupLocked(sample.gate_lookup != 0);
    if (sample.score_lookup >= 0) {
      RecordScoreLookupLocked(sample.score_lookup);
      if (sample.score_lookup == 1) {
        AppendSplitSampleLocked(&score_hit_samples_ms_, &score_hit_count_,
                                sample.latency_ms);
      } else {
        AppendSplitSampleLocked(&score_miss_samples_ms_, &score_miss_count_,
                                sample.latency_ms);
      }
    }
    if (sample.encoding_lookup >= 0) {
      RecordEncodingLookupLocked(sample.encoding_lookup);
    }
    if (health != nullptr) {
      AppendHealthSampleLocked(health, sample.latency_ms, /*ok=*/true);
    }
  }
  if (lease != nullptr && lease->lane_leased) RecordLeaseLocked(*lease);
}

int64_t ServingStats::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_;
}

double ServingStats::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ms_;
}

double ServingStats::queue_total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_total_ms_;
}

int64_t ServingStats::snapshot_leases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_leases_;
}

int64_t ServingStats::max_active_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_active_lanes_;
}

double ServingStats::LatencyPercentileMs(double pct) const {
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = samples_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  return NearestRank(sorted, pct);
}

ServingStatsSnapshot ServingStats::Snapshot() const {
  ServingStatsSnapshot snap;
  std::vector<double> sorted;
  std::vector<double> score_hit_sorted;
  std::vector<double> score_miss_sorted;
  std::vector<double> rerank_sorted;
  std::map<std::pair<std::string, int64_t>, HealthWindow> health;
  double elapsed = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.requests = requests_;
    snap.items = items_;
    snap.total_ms = total_ms_;
    if (requests_ > 0) {
      snap.mean_ms = total_ms_ / static_cast<double>(requests_);
    }
    snap.batches = batches_;
    if (batches_ > 0) {
      snap.mean_batch_requests =
          static_cast<double>(batch_requests_) / static_cast<double>(batches_);
      snap.mean_batch_items =
          static_cast<double>(batch_items_) / static_cast<double>(batches_);
    }
    snap.max_batch_requests = max_batch_requests_;
    snap.batch_requests_total = batch_requests_;
    snap.batch_items_total = batch_items_;
    snap.queued_requests = queued_requests_;
    if (queued_requests_ > 0) {
      snap.queue_mean_ms =
          queue_total_ms_ / static_cast<double>(queued_requests_);
    }
    snap.queue_max_ms = queue_max_ms_;
    snap.queue_total_ms = queue_total_ms_;
    snap.gate_cache_hits = gate_cache_hits_;
    snap.gate_cache_misses = gate_cache_misses_;
    snap.score_cache_hits = score_cache_hits_;
    snap.score_cache_misses = score_cache_misses_;
    snap.score_cache_invalidations = score_cache_invalidations_;
    snap.encoding_cache_hits = encoding_cache_hits_;
    snap.encoding_cache_misses = encoding_cache_misses_;
    snap.encoding_cache_invalidations = encoding_cache_invalidations_;
    snap.score_cache_entries = merged_score_cache_entries_;
    snap.score_cache_bytes = merged_score_cache_bytes_;
    snap.encoding_cache_entries = merged_encoding_cache_entries_;
    snap.encoding_cache_bytes = merged_encoding_cache_bytes_;
    snap.gate_cache_entries = merged_gate_cache_entries_;
    snap.gate_cache_bytes = merged_gate_cache_bytes_;
    score_hit_sorted = score_hit_samples_ms_;
    score_miss_sorted = score_miss_samples_ms_;
    snap.slates = slates_;
    snap.slate_items = slate_items_;
    if (slates_ > 0) {
      snap.mean_slate_items =
          static_cast<double>(slate_items_) / static_cast<double>(slates_);
    }
    snap.slates_le10 = slates_le10_;
    snap.slates_le25 = slates_le25_;
    snap.slates_le50 = slates_le50_;
    snap.slates_gt50 = slates_gt50_;
    rerank_sorted = rerank_samples_ms_;
    snap.snapshot_leases = snapshot_leases_;
    if (snapshot_leases_ > 0) {
      snap.mean_active_lanes = static_cast<double>(active_lanes_total_) /
                               static_cast<double>(snapshot_leases_);
    }
    snap.max_active_lanes = max_active_lanes_;
    snap.active_lanes_total = active_lanes_total_;
    snap.drift_sessions = drift_sessions_;
    snap.drift_engaged = drift_engaged_;
    for (const auto& [key, lanes] : version_lane_leases_) {
      ModelVersionStatsSnapshot version;
      version.model = key.first;
      version.version = key.second;
      version.lane_leases = lanes;
      for (int64_t count : lanes) version.leases += count;
      snap.versions.push_back(std::move(version));
    }
    health = version_health_;
    sorted = samples_ms_;
    elapsed = wall_started_ ? wall_.ElapsedSeconds() + wall_offset_s_ : 0.0;
    elapsed = std::max(elapsed, merged_wall_s_);
  }
  // Sort once outside the lock so concurrent RecordMicroBatch callers are
  // not blocked behind an O(n log n) pass; same for the per-version
  // health windows, whose percentile sorts run on the copies.
  for (auto& [key, window] : health) {
    snap.version_health.push_back(
        HealthSnapshotOf(key.first, key.second, std::move(window)));
  }
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    snap.p50_ms = NearestRank(sorted, 50.0);
    snap.p95_ms = NearestRank(sorted, 95.0);
    snap.p99_ms = NearestRank(sorted, 99.0);
  }
  std::sort(score_hit_sorted.begin(), score_hit_sorted.end());
  if (!score_hit_sorted.empty()) {
    snap.score_hit_p50_ms = NearestRank(score_hit_sorted, 50.0);
    snap.score_hit_p99_ms = NearestRank(score_hit_sorted, 99.0);
  }
  std::sort(score_miss_sorted.begin(), score_miss_sorted.end());
  if (!score_miss_sorted.empty()) {
    snap.score_miss_p50_ms = NearestRank(score_miss_sorted, 50.0);
    snap.score_miss_p99_ms = NearestRank(score_miss_sorted, 99.0);
  }
  std::sort(rerank_sorted.begin(), rerank_sorted.end());
  if (!rerank_sorted.empty()) {
    snap.rerank_p50_ms = NearestRank(rerank_sorted, 50.0);
    snap.rerank_p99_ms = NearestRank(rerank_sorted, 99.0);
  }
  snap.wall_seconds = elapsed;
  if (elapsed > 0.0) {
    snap.qps = static_cast<double>(snap.requests) / elapsed;
  }
  snap.samples_ms = std::move(sorted);
  snap.score_hit_samples_ms = std::move(score_hit_sorted);
  snap.score_miss_samples_ms = std::move(score_miss_sorted);
  snap.rerank_samples_ms = std::move(rerank_sorted);
  return snap;
}

void ServingStats::MergeFrom(const ServingStatsSnapshot& other) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_ += other.requests;
  items_ += other.items;
  total_ms_ += other.total_ms;
  batches_ += other.batches;
  batch_requests_ += other.batch_requests_total;
  batch_items_ += other.batch_items_total;
  max_batch_requests_ = std::max(max_batch_requests_, other.max_batch_requests);
  queued_requests_ += other.queued_requests;
  queue_total_ms_ += other.queue_total_ms;
  queue_max_ms_ = std::max(queue_max_ms_, other.queue_max_ms);
  gate_cache_hits_ += other.gate_cache_hits;
  gate_cache_misses_ += other.gate_cache_misses;
  score_cache_hits_ += other.score_cache_hits;
  score_cache_misses_ += other.score_cache_misses;
  score_cache_invalidations_ += other.score_cache_invalidations;
  encoding_cache_hits_ += other.encoding_cache_hits;
  encoding_cache_misses_ += other.encoding_cache_misses;
  encoding_cache_invalidations_ += other.encoding_cache_invalidations;
  // Occupancy gauges sum: each shard's snapshot carries its own pool's
  // live residency, so the sink reports fleet-wide bytes.
  merged_score_cache_entries_ += other.score_cache_entries;
  merged_score_cache_bytes_ += other.score_cache_bytes;
  merged_encoding_cache_entries_ += other.encoding_cache_entries;
  merged_encoding_cache_bytes_ += other.encoding_cache_bytes;
  merged_gate_cache_entries_ += other.gate_cache_entries;
  merged_gate_cache_bytes_ += other.gate_cache_bytes;
  // Pool the split reservoirs exactly like the main one below.
  score_hit_samples_ms_.insert(score_hit_samples_ms_.end(),
                               other.score_hit_samples_ms.begin(),
                               other.score_hit_samples_ms.end());
  score_hit_count_ +=
      static_cast<int64_t>(other.score_hit_samples_ms.size());
  score_miss_samples_ms_.insert(score_miss_samples_ms_.end(),
                                other.score_miss_samples_ms.begin(),
                                other.score_miss_samples_ms.end());
  score_miss_count_ +=
      static_cast<int64_t>(other.score_miss_samples_ms.size());
  // Slate counters sum exactly; the rerank reservoir pools like the
  // score-cache split ones (exact union under kMaxSamples per source).
  slates_ += other.slates;
  slate_items_ += other.slate_items;
  slates_le10_ += other.slates_le10;
  slates_le25_ += other.slates_le25;
  slates_le50_ += other.slates_le50;
  slates_gt50_ += other.slates_gt50;
  rerank_samples_ms_.insert(rerank_samples_ms_.end(),
                            other.rerank_samples_ms.begin(),
                            other.rerank_samples_ms.end());
  rerank_count_ += static_cast<int64_t>(other.rerank_samples_ms.size());
  snapshot_leases_ += other.snapshot_leases;
  active_lanes_total_ += other.active_lanes_total;
  max_active_lanes_ = std::max(max_active_lanes_, other.max_active_lanes);
  // Drift totals sum (per-version drift counters ride the health
  // windows and are, like them, deliberately not merged).
  drift_sessions_ += other.drift_sessions;
  drift_engaged_ += other.drift_engaged;
  // Pool the reservoirs. The concatenation may exceed kMaxSamples in an
  // aggregation sink — that is intentional (it IS the exact union);
  // RecordRequestLocked's reservoir math only ever overwrites slots below
  // kMaxSamples, so an oversized vector stays safe if the sink later
  // records directly.
  samples_ms_.insert(samples_ms_.end(), other.samples_ms.begin(),
                     other.samples_ms.end());
  for (const ModelVersionStatsSnapshot& version : other.versions) {
    auto [it, inserted] =
        version_lane_leases_.try_emplace({version.model, version.version});
    if (inserted &&
        TrimModelVersions(&version_lane_leases_, version.model, it,
                          kMaxVersionsPerModel)) {
      continue;  // Older than every retained version of that model.
    }
    std::vector<int64_t>& lanes = it->second;
    if (lanes.size() < version.lane_leases.size()) {
      lanes.resize(version.lane_leases.size(), 0);
    }
    for (size_t lane = 0; lane < version.lane_leases.size(); ++lane) {
      lanes[lane] += version.lane_leases[lane];
    }
  }
  // Health windows are deliberately NOT merged (sliding windows have no
  // exact union); see the header comment.
  merged_wall_s_ = std::max(merged_wall_s_, other.wall_seconds);
}

void ServingStats::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_ms_.clear();
  requests_ = 0;
  items_ = 0;
  total_ms_ = 0.0;
  batches_ = 0;
  batch_requests_ = 0;
  batch_items_ = 0;
  max_batch_requests_ = 0;
  queued_requests_ = 0;
  queue_total_ms_ = 0.0;
  queue_max_ms_ = 0.0;
  gate_cache_hits_ = 0;
  gate_cache_misses_ = 0;
  score_cache_hits_ = 0;
  score_cache_misses_ = 0;
  score_cache_invalidations_ = 0;
  encoding_cache_hits_ = 0;
  encoding_cache_misses_ = 0;
  encoding_cache_invalidations_ = 0;
  score_hit_samples_ms_.clear();
  score_hit_count_ = 0;
  score_miss_samples_ms_.clear();
  score_miss_count_ = 0;
  slates_ = 0;
  slate_items_ = 0;
  slates_le10_ = 0;
  slates_le25_ = 0;
  slates_le50_ = 0;
  slates_gt50_ = 0;
  rerank_samples_ms_.clear();
  rerank_count_ = 0;
  merged_score_cache_entries_ = 0;
  merged_score_cache_bytes_ = 0;
  merged_encoding_cache_entries_ = 0;
  merged_encoding_cache_bytes_ = 0;
  merged_gate_cache_entries_ = 0;
  merged_gate_cache_bytes_ = 0;
  snapshot_leases_ = 0;
  active_lanes_total_ = 0;
  max_active_lanes_ = 0;
  drift_sessions_ = 0;
  drift_engaged_ = 0;
  version_lane_leases_.clear();
  version_health_.clear();
  wall_started_ = false;
  wall_offset_s_ = 0.0;
  merged_wall_s_ = 0.0;
}

}  // namespace awmoe
