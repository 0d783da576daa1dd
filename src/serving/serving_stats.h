#ifndef AWMOE_SERVING_SERVING_STATS_H_
#define AWMOE_SERVING_SERVING_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
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

/// The raw state behind a ServingStatsSnapshot: counts, sums, maxima,
/// cache-occupancy gauges and the four latency histograms — everything
/// that pools across sources. `ServingStats` keeps one of these;
/// `ServingStats::MergeFrom` is the one place that says how each field
/// pools (sum or max), and `ServingStats::Snapshot` derives the means,
/// the QPS and the percentiles of ServingStatsSnapshot from it.
struct ServingCounters {
  int64_t requests = 0;
  int64_t items = 0;
  double total_ms = 0.0;

  /// Forward passes executed (one per micro-batch), the requests and
  /// candidates they carried, and the most requests one carried.
  int64_t batches = 0;
  int64_t batch_requests_total = 0;
  int64_t batch_items_total = 0;
  int64_t max_batch_requests = 0;

  /// Async front only: requests that went through the `Submit` queue,
  /// and how long they waited there before their flush started.
  int64_t queued_requests = 0;
  double queue_total_ms = 0.0;
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

  /// Snapshot-scoped cache occupancy gauges (live entries / estimated
  /// resident bytes across the pool's published snapshots). A bare
  /// ServingStats holds only what MergeFrom summed in;
  /// `ServingEngine::Stats` adds its pool's live gauges onto its
  /// snapshot, so a fleet sink reports fleet-wide residency.
  int64_t score_cache_entries = 0;
  int64_t score_cache_bytes = 0;
  int64_t encoding_cache_entries = 0;
  int64_t encoding_cache_bytes = 0;
  int64_t gate_cache_entries = 0;
  int64_t gate_cache_bytes = 0;

  /// Slate-scoring (listwise) accounting: slates rerank-scored, their
  /// total candidate count, and a size-occupancy histogram (slate
  /// length <= 10 / <= 25 / <= 50 / > 50 candidates).
  int64_t slates = 0;
  int64_t slate_items = 0;
  int64_t slates_le10 = 0;
  int64_t slates_le25 = 0;
  int64_t slates_le50 = 0;
  int64_t slates_gt50 = 0;

  /// Replica-lane accounting: one lease is acquired per executed
  /// micro-batch, and each samples how many of the snapshot's lanes
  /// were busy at acquire time — >1 means forwards for one model
  /// genuinely overlapped on distinct replicas.
  int64_t snapshot_leases = 0;
  int64_t active_lanes_total = 0;
  int64_t max_active_lanes = 0;

  /// Engine-wide accuracy-drift totals (sum over all versions' drift
  /// counters, including trimmed ones). Unlike the per-version health
  /// windows these merge, so a fleet sink reports how much
  /// shadow-scoring evidence the fleet has seen.
  int64_t drift_sessions = 0;
  int64_t drift_engaged = 0;

  /// Observed wall-clock window (seconds) behind `qps`; 0 before the
  /// first request. Merging takes the max across sources (concurrent
  /// shards share the wall), not the sum.
  double wall_seconds = 0.0;

  /// Latency histograms (ms). `latency`: every request, end to end.
  /// `score_hit_latency` / `score_miss_latency`: the requests with a
  /// level-1 lookup, split by its outcome — the hit path skips
  /// collation, lane leasing and the forward pass, and these two
  /// quantify what that buys (the bench gate asserts hit p99 < miss
  /// p99). `rerank_latency`: one sample per slate-scoring forward (the
  /// lane critical section of a slate micro-batch; collation and
  /// response fan-out excluded). Merges add bucket counts, so pooled
  /// percentiles equal those of one object that saw every request.
  Histogram latency;
  Histogram score_hit_latency;
  Histogram score_miss_latency;
  Histogram rerank_latency;
};

/// Point-in-time view of the serving counters (safe to copy around and
/// print without holding any lock): the raw counters plus what
/// `ServingStats::Snapshot` derives from them. Every percentile is the
/// nearest-rank percentile of its histogram, at most 0.78% below the
/// sample it stands for (see util/histogram.h).
struct ServingStatsSnapshot : ServingCounters {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Completed requests per second of observed wall-clock, measured
  /// from the first recorded request (not construction) to the
  /// snapshot, so idle setup time does not dilute the number.
  double qps = 0.0;

  /// Occupancy — `mean_batch_requests` — is the cross-session
  /// amortisation factor: 1.0 means every request paid its own forward.
  double mean_batch_requests = 0.0;
  double mean_batch_items = 0.0;
  double queue_mean_ms = 0.0;

  double score_hit_p50_ms = 0.0;
  double score_hit_p99_ms = 0.0;
  double score_miss_p50_ms = 0.0;
  double score_miss_p99_ms = 0.0;

  double mean_slate_items = 0.0;
  double rerank_p50_ms = 0.0;
  double rerank_p99_ms = 0.0;

  double mean_active_lanes = 0.0;

  /// Versions published via `ModelPool::UpdateModel` over the pool's
  /// lifetime (filled by `ServingEngine::Stats` from the pool; 0 when
  /// snapshotting a bare ServingStats).
  int64_t model_swaps = 0;

  /// Per model-version lease counters, ordered by (model, version).
  std::vector<ModelVersionStatsSnapshot> versions;

  /// Per model-version health windows (see VersionHealthSnapshot),
  /// ordered by (model, version).
  std::vector<VersionHealthSnapshot> version_health;
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

/// Latency and load accounting for the serving engine: exact counts,
/// totals and means, and latency percentiles read from fixed-size
/// log-linear histograms (util/histogram.h), so memory stays bounded,
/// recording is O(1) and merges are exact at any volume. Thread-safe:
/// engine workers record concurrently.
class ServingStats {
 public:
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
  /// forward latency into the rerank histogram. One lock acquisition
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
  /// score_lookup also land in the hit/miss split latency histograms.
  void RecordMicroBatch(int64_t batch_items,
                        const std::vector<RequestSample>& samples,
                        const LeaseSample* lease = nullptr);

  int64_t requests() const;
  double total_ms() const;

  /// Nearest-rank percentile of the request latency histogram; `pct` in
  /// (0, 100]. Returns 0 when nothing has been recorded.
  double LatencyPercentileMs(double pct) const;

  /// Total async queue delay (ms) across queued requests. Together with
  /// requests()/total_ms() this gives a cheap sliding SERVICE-time
  /// estimate — (total - queue) / requests over a counter delta —
  /// without paying for a full Snapshot (which copies the histograms);
  /// the fleet admission controller refreshes its per-shard estimate
  /// from exactly these three counters.
  double queue_total_ms() const;
  int64_t snapshot_leases() const;
  int64_t max_active_lanes() const;

  ServingStatsSnapshot Snapshot() const;

  /// Folds another engine's snapshot into this stats object — the
  /// fleet-aggregation path (serving/shard.h): a fresh ServingStats is
  /// used as a sink, each shard's Snapshot() is merged in, and the
  /// sink's own Snapshot() then reports fleet-wide counters and pooled
  /// percentiles equal to those of one object that recorded every
  /// shard's requests (the histograms add bucket by bucket). Counters
  /// and per-version lease breakdowns sum; max-fields take the max; the
  /// QPS wall-clock window takes the max of the sources (concurrent
  /// shards share the wall). Per-version HEALTH windows are not merged
  /// — a sliding window has no exact merge, and rollout health is
  /// gated per shard anyway.
  void MergeFrom(const ServingStatsSnapshot& other);

  /// Drops all samples and restarts the QPS wall-clock.
  void Reset();

 private:
  /// Per-version health accumulator: a histogram of the newest
  /// kHealthWindow ok-latencies, the ring of their buckets (so the
  /// oldest can be evicted), and lifetime request/error counts.
  struct HealthWindow {
    Histogram latency;
    std::vector<uint16_t> ring;  // Capacity kHealthWindow, overwritten FIFO.
    size_t next = 0;             // Ring write cursor.
    int64_t requests = 0;
    int64_t errors = 0;
    /// Shadow-scored drift evidence (lifetime, like requests/errors).
    int64_t drift_sessions = 0;
    int64_t drift_engaged = 0;

    void Add(double latency_ms, bool ok);
    VersionHealthSnapshot View(const std::string& model,
                               int64_t version) const;
  };

  // Caller holds mu_.
  void RecordLeaseLocked(const LeaseSample& lease);
  /// Finds-or-creates (model, version)'s window, running the per-model
  /// trim on insert. Returns nullptr when the version is too old to
  /// track (a fresh insert below every retained version is itself what
  /// the trim would drop — e.g. a straggler lease on a long-retired
  /// snapshot); the pointer stays valid for the rest of the locked
  /// section otherwise (map nodes are stable).
  HealthWindow* HealthWindowLocked(const std::string& model, int64_t version);

  // One mutex guards every field below: samples are recorded
  // concurrently by RankBatch worker threads and the async flusher
  // thread. The async stress test asserts exact counts under contention
  // and the TSan CI job checks the locking.
  mutable std::mutex mu_;
  /// Everything that merges. Its wall_seconds is the largest wall
  /// window merged in; Snapshot reports max(own wall, that) so an idle
  /// aggregation sink reports the sources' observed window, not 0.
  ServingCounters counters_;
  /// Keyed by (model, version), so one model's versions are contiguous
  /// and ascending; lane_leases sized on first use per lane. Trimmed to
  /// the newest kMaxVersionsPerModel versions per model on insert.
  std::map<std::pair<std::string, int64_t>, std::vector<int64_t>>
      version_lane_leases_;
  /// Health windows, keyed and trimmed exactly like version_lane_leases_
  /// (newest kMaxVersionsPerModel versions per model survive).
  std::map<std::pair<std::string, int64_t>, HealthWindow> version_health_;
  bool wall_started_ = false;  // Clock starts at the first request.
  double wall_offset_s_ = 0.0;  // First request's own service time.
  Stopwatch wall_;
};

}  // namespace awmoe

#endif  // AWMOE_SERVING_SERVING_STATS_H_
