#ifndef AWMOE_SERVING_SERVING_STATS_H_
#define AWMOE_SERVING_SERVING_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace awmoe {

/// Counters of one published model version, split by replica lane.
struct ModelVersionStatsSnapshot {
  std::string model;
  int64_t version = 0;
  int64_t leases = 0;
  /// Leases per replica lane (index = lane). Sums to `leases`.
  std::vector<int64_t> lane_leases;
};

/// Point-in-time health of one model version — what a staged rollout's
/// gate (serving/rollout.h) compares between the stable and candidate
/// arms. Percentiles come from a SLIDING window of the newest
/// `ServingStats::kHealthWindow` latency samples for that version, so
/// they track how the version serves NOW (an early warm-up spike ages
/// out instead of poisoning the whole ramp); `requests`/`errors` are
/// lifetime-exact for the version.
struct VersionHealthSnapshot {
  std::string model;
  int64_t version = 0;
  int64_t requests = 0;
  int64_t errors = 0;
  /// errors / requests (0 when nothing recorded).
  double error_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Latency samples currently in the window (<= kHealthWindow).
  int64_t window = 0;

  /// Accuracy-drift evidence: shadow-scored sessions attributed to this
  /// version (via `ServingStats::RecordDriftSample`) and how many of
  /// them ENGAGED — a positive-labelled item surfaced in the version's
  /// top-K (a UCTR-style proxy). Lifetime-exact per version, like
  /// `requests`/`errors`; the rollout drift gate compares
  /// `drift_engaged_rate` between the candidate and stable arms.
  int64_t drift_sessions = 0;
  int64_t drift_engaged = 0;
  /// drift_engaged / drift_sessions (0 when nothing recorded).
  double drift_engaged_rate = 0.0;
};

/// Point-in-time view of the serving counters (safe to copy around and
/// print without holding any lock).
struct ServingStatsSnapshot {
  int64_t requests = 0;
  int64_t items = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Completed requests per second of observed wall-clock, measured
  /// from the first recorded request (not construction) to the
  /// snapshot, so idle setup time does not dilute the number.
  double qps = 0.0;

  /// Forward passes executed (one per micro-batch). Occupancy —
  /// `mean_batch_requests` — is the cross-session amortisation factor:
  /// 1.0 means every request paid its own forward.
  int64_t batches = 0;
  double mean_batch_requests = 0.0;
  int64_t max_batch_requests = 0;
  double mean_batch_items = 0.0;

  /// Async front only: requests that went through the `Submit` queue,
  /// and how long they waited there before their flush started.
  int64_t queued_requests = 0;
  double queue_mean_ms = 0.0;
  double queue_max_ms = 0.0;

  /// §III-F gate LRU outcome counts (one lookup per request on the
  /// shared-gate path; a miss covers both cold and invalidated rows).
  int64_t gate_cache_hits = 0;
  int64_t gate_cache_misses = 0;

  /// Level-1 session score cache and level-2 session-encoding (feature
  /// store) lookup outcomes, one lookup per request on each enabled
  /// level. An invalidation is a lookup that found the session's entry
  /// stamped with an outdated context (its behaviour history changed)
  /// and evicted it; every invalidation also counts as a miss.
  int64_t score_cache_hits = 0;
  int64_t score_cache_misses = 0;
  int64_t score_cache_invalidations = 0;
  int64_t encoding_cache_hits = 0;
  int64_t encoding_cache_misses = 0;
  int64_t encoding_cache_invalidations = 0;

  /// End-to-end request latency split by level-1 outcome: the hit path
  /// skips collation, lane leasing and the forward pass entirely, and
  /// these two distributions quantify exactly what that buys (the
  /// bench gate asserts hit p99 < miss p99).
  double score_hit_p50_ms = 0.0;
  double score_hit_p99_ms = 0.0;
  double score_miss_p50_ms = 0.0;
  double score_miss_p99_ms = 0.0;

  /// Snapshot-scoped cache occupancy gauges (live entries / estimated
  /// resident bytes across the pool's published snapshots), filled by
  /// `ServingEngine::Stats` from the pool at snapshot time; MergeFrom
  /// sums them, so a fleet sink reports fleet-wide residency.
  int64_t score_cache_entries = 0;
  int64_t score_cache_bytes = 0;
  int64_t encoding_cache_entries = 0;
  int64_t encoding_cache_bytes = 0;
  int64_t gate_cache_entries = 0;
  int64_t gate_cache_bytes = 0;

  /// Slate-scoring (listwise) accounting: slates rerank-scored, their
  /// total candidate count, and a size-occupancy histogram (slate
  /// length <= 10 / <= 25 / <= 50 / > 50 candidates). All counters sum
  /// exactly through MergeFrom, so a fleet sink reports fleet-wide
  /// slate load.
  int64_t slates = 0;
  int64_t slate_items = 0;
  double mean_slate_items = 0.0;
  int64_t slates_le10 = 0;
  int64_t slates_le25 = 0;
  int64_t slates_le50 = 0;
  int64_t slates_gt50 = 0;

  /// Rerank-stage latency: one sample per slate-scoring forward pass
  /// (the lane critical section of a slate micro-batch — collation and
  /// response fan-out excluded). Percentiles come from the carried
  /// reservoir below, pooled exactly by MergeFrom like the others.
  double rerank_p50_ms = 0.0;
  double rerank_p99_ms = 0.0;
  std::vector<double> rerank_samples_ms;

  /// Replica-lane accounting: one lease is acquired per executed
  /// micro-batch. `mean/max_active_lanes` sample, at each acquire, how
  /// many of the snapshot's lanes were busy — >1 means forwards for one
  /// model genuinely overlapped on distinct replicas.
  int64_t snapshot_leases = 0;
  double mean_active_lanes = 0.0;
  int64_t max_active_lanes = 0;

  /// Versions published via `ModelPool::UpdateModel` over the pool's
  /// lifetime (filled by `ServingEngine::Stats` from the pool; 0 when
  /// snapshotting a bare ServingStats).
  int64_t model_swaps = 0;

  /// Engine-wide accuracy-drift totals (sum over all versions'
  /// drift counters, including trimmed ones). Unlike the per-version
  /// health windows these DO merge — MergeFrom sums them — so a fleet
  /// sink reports how much shadow-scoring evidence the fleet has seen.
  int64_t drift_sessions = 0;
  int64_t drift_engaged = 0;

  /// Per model-version lease counters, ordered by (model, version).
  std::vector<ModelVersionStatsSnapshot> versions;

  /// Per model-version health windows (see VersionHealthSnapshot),
  /// ordered by (model, version).
  std::vector<VersionHealthSnapshot> version_health;

  /// The retained latency reservoir, ascending-sorted — what the
  /// percentiles above were computed from. Carried so snapshots can be
  /// POOLED: `ServingStats::MergeFrom` concatenates the reservoirs of
  /// per-shard snapshots, which is the exact sample union (and thus
  /// yields exact merged percentiles) as long as every source stayed
  /// under kMaxSamples requests.
  std::vector<double> samples_ms;

  /// The score-cache hit/miss latency reservoirs behind the split
  /// percentiles above, ascending-sorted and carried for the same
  /// pooled-merge reason.
  std::vector<double> score_hit_samples_ms;
  std::vector<double> score_miss_samples_ms;

  /// Raw sums behind the means above, carried so a merge can re-derive
  /// the pooled means instead of averaging averages.
  int64_t batch_requests_total = 0;
  int64_t batch_items_total = 0;
  double queue_total_ms = 0.0;
  int64_t active_lanes_total = 0;

  /// Observed wall-clock window (seconds) behind `qps`; 0 before the
  /// first request. Merging takes the max across sources (concurrent
  /// shards share the wall), not the sum.
  double wall_seconds = 0.0;
};

/// One executed micro-batch's lease, as recorded into the stats.
struct LeaseSample {
  std::string model;
  int64_t version = 0;
  int replica = 0;
  int num_replicas = 1;
  /// Lanes of the snapshot active at acquire time (including this one).
  int active_lanes = 1;
  /// False for a micro-batch served ENTIRELY from the level-1 score
  /// cache: the snapshot was pinned (model/version above are real) but
  /// no replica lane was leased and no forward pass ran, so the batch
  /// and lease counters are skipped — only the per-request samples and
  /// the version health window are fed.
  bool lane_leased = true;
};

/// One request's contribution to a micro-batch stats record. The
/// session-cache lookup fields share one encoding: -1 no lookup, 0
/// miss, 1 hit, 2 stale (counted as a miss AND an invalidation).
struct RequestSample {
  int64_t items = 0;
  double latency_ms = 0.0;
  double queue_ms = -1.0;  // < 0: not an async (queued) request.
  int gate_lookup = -1;    // -1 no lookup, 0 cache miss, 1 cache hit.
  int score_lookup = -1;     // Level-1 score-cache outcome.
  int encoding_lookup = -1;  // Level-2 encoding-cache outcome.
};

/// Latency accounting for the serving engine. Unlike the old aggregate
/// counters (sessions/total_ms), per-request latency samples are kept,
/// so percentiles are exact (nearest-rank) up to kMaxSamples requests;
/// past that a uniform reservoir bounds memory and percentiles become
/// statistically representative estimates. Counts, totals and the mean
/// stay exact throughout. Thread-safe: engine workers record
/// concurrently.
class ServingStats {
 public:
  /// Samples retained for percentile computation.
  static constexpr int64_t kMaxSamples = 1 << 16;

  /// Per-model cap on retained version entries in the lease breakdown:
  /// under continuous hot swaps only the newest versions stay, so the
  /// stats map (copied on every Snapshot) cannot grow without bound.
  static constexpr int kMaxVersionsPerModel = 8;

  /// Sliding-window size of the per-version health percentiles (the
  /// rollout gate's p99 is computed over the newest kHealthWindow
  /// samples of each version).
  static constexpr int64_t kHealthWindow = 2048;

  ServingStats() = default;

  /// Records the rerank stage of one slate-scoring micro-batch: one
  /// size-histogram entry per slate in `slate_sizes` (the per-request
  /// candidate counts the forward scored atomically) plus the stage's
  /// forward latency into the rerank reservoir. One lock acquisition
  /// for the whole micro-batch, like RecordMicroBatch.
  void RecordSlateBatch(std::span<const int64_t> slate_sizes,
                        double rerank_ms);

  /// Records one request outcome into `(model, version)`'s health
  /// window: `ok` requests contribute their latency to the sliding
  /// percentile window, failed ones count toward the error rate the
  /// rollout gate checks. The engine feeds this per scored request (via
  /// RecordMicroBatch) and per serving-side async reject (backpressure
  /// / stopped, attributed to the routed arm's version by Submit); it
  /// is public so error paths outside the engine can attribute
  /// failures to a version directly.
  void RecordVersionSample(const std::string& model, int64_t version,
                           double latency_ms, bool ok);

  /// Records one shadow-scored session outcome into `(model,
  /// version)`'s drift counters: `engaged` is true when a
  /// positive-labelled item surfaced in the version's top-K for that
  /// session (UCTR-style engagement; see train/retrain_driver.h for
  /// the shadow-scoring loop that feeds this). Also bumps the
  /// engine-wide drift totals. Ignored per-version (totals still
  /// count) when the version is older than every retained one.
  void RecordDriftSample(const std::string& model, int64_t version,
                         bool engaged);

  /// Zeroes `(model, version)`'s drift counters (latency/error health
  /// and the engine-wide totals are untouched). The drift gate compares
  /// ENGAGEMENT RATES across arms, which is only fair over the same
  /// shadow population — the retrain driver calls this on the stable
  /// arm at the start of each round so a long-lived stable's evidence
  /// from earlier (differently difficult) windows does not skew the
  /// floor the fresh candidate must clear.
  void ResetDriftCounters(const std::string& model, int64_t version);

  /// The health window of `(model, version)`; zeros when that version
  /// has recorded nothing (or was trimmed as one of the oldest).
  VersionHealthSnapshot VersionHealth(const std::string& model,
                                      int64_t version) const;

  /// Records one executed micro-batch and all its requests under a
  /// SINGLE lock acquisition (workers and the async flusher all contend
  /// on this mutex): one batch of `samples.size()` requests totalling
  /// `batch_items` candidates, then per sample its request latency, its
  /// queue delay (queue_ms >= 0) and its gate / score / encoding lookup
  /// outcomes (each *_lookup >= 0), plus one lease when `lease` is
  /// non-null — in which case each sample's latency also lands in the
  /// lease's (model, version) health window (ok=true: a micro-batch
  /// whose forward threw is not recorded here; the engine counts it
  /// as one failure instead). A lease with lane_leased == false
  /// (micro-batch fully served from the score cache) skips the batch
  /// and lease counters: no forward pass ran. Samples with a
  /// score_lookup also land in the hit/miss split latency reservoirs.
  void RecordMicroBatch(int64_t batch_items,
                        const std::vector<RequestSample>& samples,
                        const LeaseSample* lease = nullptr);

  int64_t requests() const;
  double total_ms() const;

  /// Nearest-rank percentile over the retained samples (exact until
  /// kMaxSamples requests, reservoir-estimated beyond); `pct` in
  /// (0, 100]. Returns 0 when nothing has been recorded.
  double LatencyPercentileMs(double pct) const;

  /// Total async queue delay (ms) across queued requests. Together with
  /// requests()/total_ms() this gives a cheap sliding SERVICE-time
  /// estimate — (total - queue) / requests over a counter delta —
  /// without paying for a full Snapshot (which copies the reservoir);
  /// the fleet admission controller refreshes its per-shard estimate
  /// from exactly these three counters.
  double queue_total_ms() const;
  int64_t snapshot_leases() const;
  int64_t max_active_lanes() const;

  ServingStatsSnapshot Snapshot() const;

  /// Folds another engine's snapshot into this stats object — the
  /// fleet-aggregation path (serving/shard.h): a fresh ServingStats is
  /// used as a sink, each shard's Snapshot() is merged in, and the
  /// sink's own Snapshot() then reports fleet-wide counters and EXACT
  /// pooled percentiles (the snapshot carries its latency reservoir;
  /// concatenation is the sample union while every source stayed under
  /// kMaxSamples). Counters and per-version lease breakdowns sum;
  /// max-fields take the max; the QPS wall-clock window takes the max
  /// of the sources (concurrent shards share the wall). Per-version
  /// HEALTH windows are not merged — a sliding window has no exact
  /// merge, and rollout health is gated per shard anyway.
  void MergeFrom(const ServingStatsSnapshot& other);

  /// Drops all samples and restarts the QPS wall-clock.
  void Reset();

 private:
  /// Per-version health accumulator: a circular buffer of the newest
  /// kHealthWindow ok-latencies plus lifetime request/error counts.
  struct HealthWindow {
    std::vector<double> ring;  // Capacity kHealthWindow, overwritten FIFO.
    size_t next = 0;           // Ring write cursor.
    int64_t requests = 0;
    int64_t errors = 0;
    /// Shadow-scored drift evidence (lifetime, like requests/errors).
    int64_t drift_sessions = 0;
    int64_t drift_engaged = 0;
  };

  // Unlocked parts of RecordMicroBatch; caller holds mu_.
  void RecordRequestLocked(int64_t items, double latency_ms);
  void RecordBatchLocked(int64_t batch_requests, int64_t batch_items);
  void RecordQueueDelayLocked(double delay_ms);
  void RecordGateLookupLocked(bool hit);
  void RecordScoreLookupLocked(int outcome);
  void RecordEncodingLookupLocked(int outcome);
  void RecordLeaseLocked(const LeaseSample& lease);
  /// Reservoir append (Algorithm R, like the main reservoir) into one
  /// of the score-cache hit/miss split reservoirs; `count` is that
  /// reservoir's lifetime sample count, bumped here.
  void AppendSplitSampleLocked(std::vector<double>* reservoir,
                               int64_t* count, double latency_ms);
  /// Finds-or-creates (model, version)'s window, running the per-model
  /// trim on insert. Returns nullptr when the version is too old to
  /// track (a fresh insert below every retained version is itself what
  /// the trim would drop — e.g. a straggler lease on a long-retired
  /// snapshot); the pointer stays valid for the rest of the locked
  /// section otherwise (map nodes are stable).
  HealthWindow* HealthWindowLocked(const std::string& model, int64_t version);
  static void AppendHealthSampleLocked(HealthWindow* window,
                                       double latency_ms, bool ok);
  /// Builds the percentile view from a COPIED window — called outside
  /// mu_ so the O(N log N) sort never blocks the recording hot path.
  static VersionHealthSnapshot HealthSnapshotOf(const std::string& model,
                                                int64_t version,
                                                HealthWindow window);

  // One mutex guards every counter AND the latency reservoir: samples
  // are recorded concurrently by RankBatch worker threads and the async
  // flusher thread, so the reservoir (vector growth, slot overwrites,
  // the xorshift state) must never be touched outside mu_. The async
  // stress test asserts exact counts under contention and the TSan CI
  // job checks the locking.
  mutable std::mutex mu_;
  std::vector<double> samples_ms_;  // Reservoir, capped at kMaxSamples.
  int64_t requests_ = 0;
  int64_t items_ = 0;
  double total_ms_ = 0.0;
  int64_t batches_ = 0;
  int64_t batch_requests_ = 0;  // Sum over batches; occupancy numerator.
  int64_t batch_items_ = 0;
  int64_t max_batch_requests_ = 0;
  int64_t queued_requests_ = 0;
  double queue_total_ms_ = 0.0;
  double queue_max_ms_ = 0.0;
  int64_t gate_cache_hits_ = 0;
  int64_t gate_cache_misses_ = 0;
  int64_t score_cache_hits_ = 0;
  int64_t score_cache_misses_ = 0;
  int64_t score_cache_invalidations_ = 0;
  int64_t encoding_cache_hits_ = 0;
  int64_t encoding_cache_misses_ = 0;
  int64_t encoding_cache_invalidations_ = 0;
  /// Score-cache hit/miss split latency reservoirs, each capped at
  /// kMaxSamples with its own lifetime count driving Algorithm R.
  std::vector<double> score_hit_samples_ms_;
  int64_t score_hit_count_ = 0;
  std::vector<double> score_miss_samples_ms_;
  int64_t score_miss_count_ = 0;
  /// Cache occupancy gauges folded in via MergeFrom (a bare
  /// ServingStats never sets its own: the engine stamps live pool
  /// gauges onto its snapshot AFTER Snapshot(), so these only carry
  /// the summed gauges of merged-in shard snapshots).
  int64_t merged_score_cache_entries_ = 0;
  int64_t merged_score_cache_bytes_ = 0;
  int64_t merged_encoding_cache_entries_ = 0;
  int64_t merged_encoding_cache_bytes_ = 0;
  int64_t merged_gate_cache_entries_ = 0;
  int64_t merged_gate_cache_bytes_ = 0;
  /// Slate-scoring counters and the rerank-stage latency reservoir
  /// (capped at kMaxSamples with its own lifetime count, like the
  /// score-cache split reservoirs).
  int64_t slates_ = 0;
  int64_t slate_items_ = 0;
  int64_t slates_le10_ = 0;
  int64_t slates_le25_ = 0;
  int64_t slates_le50_ = 0;
  int64_t slates_gt50_ = 0;
  std::vector<double> rerank_samples_ms_;
  int64_t rerank_count_ = 0;
  int64_t snapshot_leases_ = 0;
  int64_t active_lanes_total_ = 0;  // Sum of per-lease samples; mean numerator.
  int64_t max_active_lanes_ = 0;
  /// Engine-wide drift totals (per-version counters live in the health
  /// windows; these survive version trims and merge across shards).
  int64_t drift_sessions_ = 0;
  int64_t drift_engaged_ = 0;
  /// Keyed by (model, version), so one model's versions are contiguous
  /// and ascending; lane_leases sized on first use per lane. Trimmed to
  /// the newest kMaxVersionsPerModel versions per model on insert.
  std::map<std::pair<std::string, int64_t>, std::vector<int64_t>>
      version_lane_leases_;
  /// Health windows, keyed and trimmed exactly like version_lane_leases_
  /// (newest kMaxVersionsPerModel versions per model survive).
  std::map<std::pair<std::string, int64_t>, HealthWindow> version_health_;
  uint64_t reservoir_rng_ = 0x9E3779B97F4A7C15ull;
  bool wall_started_ = false;  // Clock starts at the first request.
  double wall_offset_s_ = 0.0;  // First request's own service time.
  Stopwatch wall_;
  /// Largest wall window merged in via MergeFrom; the snapshot's QPS
  /// window is max(own wall, merged wall) so an idle aggregation sink
  /// reports the sources' observed window instead of 0.
  double merged_wall_s_ = 0.0;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_SERVING_STATS_H_
