#include "serving/serving_stats.h"

#include <algorithm>

namespace awmoe {

namespace {

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

/// One cache lookup outcome (0 miss, 1 hit, 2 stale: a miss that also
/// invalidated the entry) into that level's counters.
void CountLookup(int outcome, int64_t* hits, int64_t* misses,
                 int64_t* invalidations) {
  if (outcome == 1) {
    ++*hits;
  } else {
    ++*misses;
    if (outcome == 2) ++*invalidations;
  }
}

double Ratio(double numerator, int64_t denominator) {
  return denominator > 0 ? numerator / static_cast<double>(denominator) : 0.0;
}

}  // namespace

void ServingStats::RecordLeaseLocked(const LeaseSample& lease) {
  ++counters_.snapshot_leases;
  counters_.active_lanes_total += lease.active_lanes;
  counters_.max_active_lanes = std::max(
      counters_.max_active_lanes, static_cast<int64_t>(lease.active_lanes));
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
    ++counters_.slates;
    counters_.slate_items += size;
    if (size <= 10) {
      ++counters_.slates_le10;
    } else if (size <= 25) {
      ++counters_.slates_le25;
    } else if (size <= 50) {
      ++counters_.slates_le50;
    } else {
      ++counters_.slates_gt50;
    }
  }
  counters_.rerank_latency.Record(rerank_ms);
}

void ServingStats::RecordVersionSample(const std::string& model,
                                       int64_t version, double latency_ms,
                                       bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  HealthWindow* window = HealthWindowLocked(model, version);
  if (window != nullptr) window->Add(latency_ms, ok);
}

void ServingStats::RecordDriftSample(const std::string& model,
                                     int64_t version, bool engaged) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.drift_sessions;
  if (engaged) ++counters_.drift_engaged;
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

void ServingStats::HealthWindow::Add(double latency_ms, bool ok) {
  static_assert(Histogram::kNumBuckets <= 65536,
                "ring stores bucket indices as uint16_t");
  ++requests;
  if (!ok) {
    ++errors;
    return;
  }
  const auto bucket = static_cast<uint16_t>(latency.Record(latency_ms));
  if (static_cast<int64_t>(ring.size()) < kHealthWindow) {
    ring.push_back(bucket);
    return;
  }
  // Sliding window, not a sample of the lifetime: the rollout gate
  // wants the version's CURRENT tail, so the oldest sample is evicted.
  latency.Erase(ring[next]);
  ring[next] = bucket;
  next = (next + 1) % static_cast<size_t>(kHealthWindow);
}

VersionHealthSnapshot ServingStats::HealthWindow::View(
    const std::string& model, int64_t version) const {
  VersionHealthSnapshot snap;
  snap.model = model;
  snap.version = version;
  snap.requests = requests;
  snap.errors = errors;
  snap.error_rate = Ratio(static_cast<double>(errors), requests);
  snap.drift_sessions = drift_sessions;
  snap.drift_engaged = drift_engaged;
  snap.drift_engaged_rate =
      Ratio(static_cast<double>(drift_engaged), drift_sessions);
  snap.window = latency.count();
  snap.p50_ms = latency.Percentile(50.0);
  snap.p99_ms = latency.Percentile(99.0);
  return snap;
}

VersionHealthSnapshot ServingStats::VersionHealth(const std::string& model,
                                                  int64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = version_health_.find({model, version});
  if (it != version_health_.end()) return it->second.View(model, version);
  VersionHealthSnapshot none;
  none.model = model;
  none.version = version;
  return none;
}

void ServingStats::RecordMicroBatch(
    int64_t batch_items, const std::vector<RequestSample>& samples,
    const LeaseSample* lease) {
  std::lock_guard<std::mutex> lock(mu_);
  ServingCounters& c = counters_;
  if (!wall_started_ && !samples.empty()) {
    // The clock starts when serving starts, not at construction; this
    // is the first completion, so backdate by this request's latency to
    // include its service time in the QPS window.
    wall_.Restart();
    wall_started_ = true;
    wall_offset_s_ = samples.front().latency_ms / 1e3;
  }
  // A fully score-cache-served micro-batch leased no lane and ran no
  // forward pass: the batch (occupancy) and lease counters would
  // misreport it as compute.
  if (lease == nullptr || lease->lane_leased) {
    const auto batch_requests = static_cast<int64_t>(samples.size());
    ++c.batches;
    c.batch_requests_total += batch_requests;
    c.batch_items_total += batch_items;
    c.max_batch_requests = std::max(c.max_batch_requests, batch_requests);
  }
  // One map probe for the whole micro-batch: every sample lands in the
  // same (model, version) health window as the shared lease.
  HealthWindow* health =
      lease == nullptr ? nullptr
                       : HealthWindowLocked(lease->model, lease->version);
  for (const RequestSample& sample : samples) {
    ++c.requests;
    c.items += sample.items;
    c.total_ms += sample.latency_ms;
    c.latency.Record(sample.latency_ms);
    if (sample.queue_ms >= 0.0) {
      ++c.queued_requests;
      c.queue_total_ms += sample.queue_ms;
      c.queue_max_ms = std::max(c.queue_max_ms, sample.queue_ms);
    }
    if (sample.gate_lookup >= 0) {
      ++(sample.gate_lookup != 0 ? c.gate_cache_hits : c.gate_cache_misses);
    }
    if (sample.score_lookup >= 0) {
      CountLookup(sample.score_lookup, &c.score_cache_hits,
                  &c.score_cache_misses, &c.score_cache_invalidations);
      (sample.score_lookup == 1 ? c.score_hit_latency : c.score_miss_latency)
          .Record(sample.latency_ms);
    }
    if (sample.encoding_lookup >= 0) {
      CountLookup(sample.encoding_lookup, &c.encoding_cache_hits,
                  &c.encoding_cache_misses, &c.encoding_cache_invalidations);
    }
    if (health != nullptr) health->Add(sample.latency_ms, /*ok=*/true);
  }
  if (lease != nullptr && lease->lane_leased) RecordLeaseLocked(*lease);
}

int64_t ServingStats::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.requests;
}

double ServingStats::total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.total_ms;
}

double ServingStats::queue_total_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.queue_total_ms;
}

int64_t ServingStats::snapshot_leases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.snapshot_leases;
}

int64_t ServingStats::max_active_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.max_active_lanes;
}

double ServingStats::LatencyPercentileMs(double pct) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.latency.Percentile(pct);
}

ServingStatsSnapshot ServingStats::Snapshot() const {
  ServingStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    static_cast<ServingCounters&>(snap) = counters_;
    for (const auto& [key, lanes] : version_lane_leases_) {
      ModelVersionStatsSnapshot version;
      version.model = key.first;
      version.version = key.second;
      version.lane_leases = lanes;
      for (int64_t count : lanes) version.leases += count;
      snap.versions.push_back(std::move(version));
    }
    for (const auto& [key, window] : version_health_) {
      snap.version_health.push_back(window.View(key.first, key.second));
    }
    if (wall_started_) {
      snap.wall_seconds = std::max(
          snap.wall_seconds, wall_.ElapsedSeconds() + wall_offset_s_);
    }
  }
  snap.mean_ms = Ratio(snap.total_ms, snap.requests);
  snap.p50_ms = snap.latency.Percentile(50.0);
  snap.p95_ms = snap.latency.Percentile(95.0);
  snap.p99_ms = snap.latency.Percentile(99.0);
  if (snap.wall_seconds > 0.0) {
    snap.qps = static_cast<double>(snap.requests) / snap.wall_seconds;
  }
  snap.mean_batch_requests =
      Ratio(static_cast<double>(snap.batch_requests_total), snap.batches);
  snap.mean_batch_items =
      Ratio(static_cast<double>(snap.batch_items_total), snap.batches);
  snap.queue_mean_ms = Ratio(snap.queue_total_ms, snap.queued_requests);
  snap.score_hit_p50_ms = snap.score_hit_latency.Percentile(50.0);
  snap.score_hit_p99_ms = snap.score_hit_latency.Percentile(99.0);
  snap.score_miss_p50_ms = snap.score_miss_latency.Percentile(50.0);
  snap.score_miss_p99_ms = snap.score_miss_latency.Percentile(99.0);
  snap.mean_slate_items =
      Ratio(static_cast<double>(snap.slate_items), snap.slates);
  snap.rerank_p50_ms = snap.rerank_latency.Percentile(50.0);
  snap.rerank_p99_ms = snap.rerank_latency.Percentile(99.0);
  snap.mean_active_lanes =
      Ratio(static_cast<double>(snap.active_lanes_total),
            snap.snapshot_leases);
  return snap;
}

void ServingStats::MergeFrom(const ServingStatsSnapshot& other) {
  std::lock_guard<std::mutex> lock(mu_);
  ServingCounters& c = counters_;
  // Counts, sums and the occupancy gauges add (each shard's snapshot
  // carries its own pool's live residency, so the sink reports
  // fleet-wide bytes); so do the histograms, bucket by bucket.
  c.requests += other.requests;
  c.items += other.items;
  c.total_ms += other.total_ms;
  c.batches += other.batches;
  c.batch_requests_total += other.batch_requests_total;
  c.batch_items_total += other.batch_items_total;
  c.queued_requests += other.queued_requests;
  c.queue_total_ms += other.queue_total_ms;
  c.gate_cache_hits += other.gate_cache_hits;
  c.gate_cache_misses += other.gate_cache_misses;
  c.score_cache_hits += other.score_cache_hits;
  c.score_cache_misses += other.score_cache_misses;
  c.score_cache_invalidations += other.score_cache_invalidations;
  c.encoding_cache_hits += other.encoding_cache_hits;
  c.encoding_cache_misses += other.encoding_cache_misses;
  c.encoding_cache_invalidations += other.encoding_cache_invalidations;
  c.score_cache_entries += other.score_cache_entries;
  c.score_cache_bytes += other.score_cache_bytes;
  c.encoding_cache_entries += other.encoding_cache_entries;
  c.encoding_cache_bytes += other.encoding_cache_bytes;
  c.gate_cache_entries += other.gate_cache_entries;
  c.gate_cache_bytes += other.gate_cache_bytes;
  c.slates += other.slates;
  c.slate_items += other.slate_items;
  c.slates_le10 += other.slates_le10;
  c.slates_le25 += other.slates_le25;
  c.slates_le50 += other.slates_le50;
  c.slates_gt50 += other.slates_gt50;
  c.snapshot_leases += other.snapshot_leases;
  c.active_lanes_total += other.active_lanes_total;
  // Drift totals sum (per-version drift counters ride the health
  // windows and are, like them, deliberately not merged).
  c.drift_sessions += other.drift_sessions;
  c.drift_engaged += other.drift_engaged;
  c.latency.Merge(other.latency);
  c.score_hit_latency.Merge(other.score_hit_latency);
  c.score_miss_latency.Merge(other.score_miss_latency);
  c.rerank_latency.Merge(other.rerank_latency);
  // Maxima take the max; so does the wall window (concurrent sources
  // share the wall).
  c.max_batch_requests = std::max(c.max_batch_requests,
                                  other.max_batch_requests);
  c.queue_max_ms = std::max(c.queue_max_ms, other.queue_max_ms);
  c.max_active_lanes = std::max(c.max_active_lanes, other.max_active_lanes);
  c.wall_seconds = std::max(c.wall_seconds, other.wall_seconds);
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
}

void ServingStats::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = {};
  version_lane_leases_.clear();
  version_health_.clear();
  wall_started_ = false;  // The next request restarts the clock.
}

}  // namespace awmoe
