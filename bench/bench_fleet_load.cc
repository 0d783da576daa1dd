// Fleet-scale load harness (ROADMAP item 2): drives a
// ShardedServingFleet with an OPEN-LOOP arrival process — requests
// land on the fleet's clock, not the caller's, so queueing delay is
// measured honestly instead of self-throttling — over a synthetic
// population of up to millions of distinct users with Zipf session
// popularity and a diurnal + bursty arrival trace
// (bench/common/load_model.h). Three phases:
//
//   closed-loop   single engine vs the N-shard fleet under a client
//                 storm (the fleet-scaling headline; compute-bound on
//                 one core, scales with cores and shards),
//   uncontended   low-rate open loop to calibrate the no-load p99 that
//                 the admission deadline is derived from,
//   overload      an offered-rate sweep, each point run twice — with
//                 deadline-aware admission control and without — so
//                 the artifact shows BOTH the bounded accepted-p99
//                 under shedding and the unbounded sojourn growth
//                 without it.
//
// `--json` writes the machine-readable artifact consumed by the CI
// bench-smoke upload, including the acceptance gates: accepted p99
// within 2x uncontended p99, and the fleet/single QPS ratio with the
// core count it was measured on.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/experiment_lib.h"
#include "common/load_model.h"
#include "serving/shard.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

constexpr char kModelName[] = "aw-moe-cl";

struct FleetLoadFlags {
  int64_t shards = 4;
  int64_t users = 1000000;
  double zipf = 1.05;
  double duration_s = 6.0;
  int64_t clients = 4;
  int64_t seed = 20230608;
  bool smoke = false;
  /// Cache-sweep repeat mix: < 0 sweeps the built-in {0.0, 0.5, 0.8}
  /// grid; >= 0 pins the sweep to that single rate.
  double repeat_rate = -1.0;
  std::string json;
};

/// The candidate corpus + preprocessing context the whole harness
/// serves from. Models stay untrained: serving latency depends on
/// shapes, not weights, and training would dominate the smoke budget.
struct Workload {
  DatasetMeta meta;
  Standardizer standardizer;
  std::vector<Example> corpus;  // Owns the examples item lists point at.
  std::vector<std::vector<const Example*>> sessions;
  int64_t users = 0;
  double zipf = 1.05;

  /// Request of synthetic user `rank`: a stable session id (hot ranks
  /// are the same user every draw — gate caches and ring placement see
  /// real repetition) over one of the corpus item lists.
  RankRequest RequestFor(int64_t rank, double deadline_ms) const {
    return RequestFor(rank, /*variant=*/0, deadline_ms);
  }

  /// Variant-aware request: page `variant` of user `rank` maps to a
  /// different corpus item list, so a RepeatMixSampler draw with
  /// repeat=true is a verbatim replay (level-1 score-cache hit) while a
  /// fresh variant is the same user over new candidates (a miss that
  /// restamps the session). The 7919 stride is coprime with the corpus
  /// size, so consecutive variants walk distinct pages.
  RankRequest RequestFor(int64_t rank, int64_t variant,
                         double deadline_ms, int64_t pages = 1) const {
    RankRequest request;
    request.session_id = SyntheticSessionId(rank);
    request.deadline_ms = deadline_ms;
    // `pages` corpus item lists concatenated into one candidate set:
    // the cache sweep uses rerank-sized requests (a few dozen
    // candidates) so the forward pass a level-1 hit skips is the
    // realistic cost, not a toy one.
    for (int64_t p = 0; p < pages; ++p) {
      const auto& page = sessions[static_cast<size_t>(
          (rank + 7919 * variant + 131 * p) %
          static_cast<int64_t>(sessions.size()))];
      request.items.insert(request.items.end(), page.begin(), page.end());
    }
    return request;
  }

  std::unique_ptr<Ranker> NewModel() const {
    return MakeModel(ModelKind::kAwMoeCl, meta, ModelDims::Default(),
                     /*seed=*/7);
  }
};

Workload MakeWorkload(const FleetLoadFlags& flags) {
  JdConfig config;
  config.train_sessions = 200;  // Only feeds the standardizer fit.
  config.test_sessions = flags.smoke ? 200 : 500;
  config.longtail1_sessions = 10;
  config.longtail2_sessions = 10;
  config.seed = static_cast<uint64_t>(flags.seed);
  JdDataset data = JdSyntheticGenerator(config).Generate();
  Workload workload;
  workload.meta = data.meta;
  workload.standardizer.Fit(data.train);
  workload.corpus = std::move(data.full_test);
  workload.sessions = GroupBySession(workload.corpus);
  workload.users = flags.users;
  workload.zipf = flags.zipf;
  return workload;
}

FleetOptions MakeFleetOptions(const FleetLoadFlags& flags, bool admission,
                              double default_deadline_ms) {
  FleetOptions options;
  options.num_shards = static_cast<int>(flags.shards);
  // The admission estimator sees the QUEUE, not the batch already in
  // flight — a modest batch ceiling bounds that unobservable work to a
  // fraction of the deadline.
  options.engine.max_batch_items = 16;
  options.admission.enabled = admission;
  options.admission.default_deadline_ms = default_deadline_ms;
  // Refresh the service-time estimate aggressively: the bench sweeps
  // through load regimes in seconds, not minutes.
  options.admission.load_refresh_every = 4;
  // Degraded mode is a last-resort starvation valve; admitting past the
  // deadline puts unbounded sojourns into the ACCEPTED percentiles, so
  // the sweep keeps it out of reach (tests and the example exercise it).
  options.admission.max_shed_rate = 0.995;
  // Sub-millisecond services on this workload make the un-modeled
  // drain costs proportionally large; widen the safety margin past the
  // library default accordingly.
  options.admission.estimate_safety = 2.8;
  return options;
}

std::unique_ptr<ShardedServingFleet> MakeFleet(const Workload& workload,
                                               const FleetOptions& options) {
  auto fleet = std::make_unique<ShardedServingFleet>(
      workload.meta, &workload.standardizer, options);
  fleet->RegisterOwned(kModelName, workload.NewModel());
  return fleet;
}

/// Closed-loop QPS of one plain engine under `clients` storm threads —
/// the baseline the fleet ratio is measured against.
double SingleEngineClosedLoopQps(const Workload& workload,
                                 const FleetLoadFlags& flags,
                                 int64_t requests_per_client) {
  ModelPool pool(workload.meta, &workload.standardizer, ModelPoolOptions{});
  pool.RegisterOwned(kModelName, workload.NewModel());
  ServingEngine engine(&pool);
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < flags.clients; ++c) {
    threads.emplace_back([&, c] {
      ZipfSampler zipf(workload.users, workload.zipf,
                       static_cast<uint64_t>(flags.seed) + 100 +
                           static_cast<uint64_t>(c));
      for (int64_t i = 0; i < requests_per_client; ++i) {
        engine.Submit(workload.RequestFor(zipf.Next(), 0.0)).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  engine.Stop();
  return engine.Stats().qps;
}

/// Closed-loop QPS of the fleet under the same storm (admission off:
/// closed-loop clients self-throttle, there is nothing to shed).
double FleetClosedLoopQps(const Workload& workload,
                          const FleetLoadFlags& flags,
                          int64_t requests_per_client) {
  auto fleet = MakeFleet(
      workload, MakeFleetOptions(flags, /*admission=*/false, 20.0));
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < flags.clients; ++c) {
    threads.emplace_back([&, c] {
      ZipfSampler zipf(workload.users, workload.zipf,
                       static_cast<uint64_t>(flags.seed) + 200 +
                           static_cast<uint64_t>(c));
      for (int64_t i = 0; i < requests_per_client; ++i) {
        fleet->Submit(workload.RequestFor(zipf.Next(), 0.0)).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  fleet->Stop();
  return fleet->Stats().merged.qps;
}

struct OpenLoopResult {
  double offered_qps = 0.0;
  int64_t arrivals = 0;
  int64_t ok = 0;
  int64_t rejected = 0;
  FleetStats stats;
};

/// One open-loop run: arrivals from the diurnal+burst trace, users from
/// the Zipf population, every request carrying `deadline_ms`. The
/// generator sleeps until each arrival's timestamp and never waits on
/// responses — futures are collected afterwards — so queue growth shows
/// up as latency, exactly as an overloaded open system behaves.
OpenLoopResult RunOpenLoop(ShardedServingFleet* fleet,
                           const Workload& workload, double rate_qps,
                           double duration_s, double deadline_ms,
                           uint64_t seed, bool flat = false) {
  ArrivalTraceConfig trace;
  trace.duration_s = duration_s;
  trace.base_rate_qps = rate_qps;
  if (!flat) {
    trace.diurnal_amplitude = 0.25;
    trace.diurnal_period_s = duration_s;  // One "day" per run.
    trace.burst_multiplier = 2.0;
    trace.burst_duration_s = duration_s * 0.08;
    trace.burst_interval_s = duration_s / 3.0;
  } else {
    trace.diurnal_amplitude = 0.0;
    trace.burst_multiplier = 1.0;
  }
  trace.seed = seed;
  const std::vector<double> arrivals = GenerateArrivals(trace);
  ZipfSampler zipf(workload.users, workload.zipf, seed + 1);

  fleet->ResetStats();
  OpenLoopResult result;
  result.arrivals = static_cast<int64_t>(arrivals.size());
  result.offered_qps = static_cast<double>(arrivals.size()) / duration_s;
  std::vector<std::future<RankResponse>> futures;
  futures.reserve(arrivals.size());
  const auto start = std::chrono::steady_clock::now();
  for (double t : arrivals) {
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(t));
    futures.push_back(
        fleet->Submit(workload.RequestFor(zipf.Next(), deadline_ms)));
  }
  for (std::future<RankResponse>& future : futures) {
    const RankResponse response = future.get();
    if (response.status.ok()) {
      ++result.ok;
    } else {
      ++result.rejected;
    }
  }
  result.stats = fleet->Stats();
  return result;
}

struct SweepRow {
  double offered_qps = 0.0;
  bool admission = false;
  OpenLoopResult result;
};

// --- Phase 4: the session-cache sweep (ROADMAP item 3). ---

struct CacheSweepRow {
  double repeat_rate = 0.0;
  bool cache_on = false;
  int64_t requests = 0;
  double hit_rate = 0.0;  // Level-1: hits / (hits + misses).
  FleetStats stats;
};

/// One cache-sweep point: `requests` sequential draws from a
/// RepeatMixSampler — each request completes before the next is drawn,
/// so a repeat always lands after the original it replays and the
/// latency split measures the COMPUTE a level-1 hit saves (no queueing
/// behind siblings, and a near-zero flush window keeps the batcher's
/// wait out of both sides of the comparison).
CacheSweepRow RunCacheLoad(const Workload& workload,
                           const FleetLoadFlags& flags, double repeat_rate,
                           bool cache_on, int64_t requests) {
  FleetOptions options =
      MakeFleetOptions(flags, /*admission=*/false, /*deadline=*/20.0);
  if (cache_on) {
    options.engine.score_cache_capacity = 1 << 15;
    options.engine.encoding_cache_capacity = 1 << 15;
  } else {
    options.engine.score_cache_capacity = 0;
    options.engine.encoding_cache_capacity = 0;
  }
  auto fleet = MakeFleet(workload, options);
  RepeatMixSampler sampler(workload.users, workload.zipf, repeat_rate,
                           static_cast<uint64_t>(flags.seed) + 500 +
                               static_cast<uint64_t>(repeat_rate * 100) +
                               (cache_on ? 0 : 1));
  CacheSweepRow row;
  row.repeat_rate = repeat_rate;
  row.cache_on = cache_on;
  row.requests = requests;
  for (int64_t sent = 0; sent < requests; ++sent) {
    const RequestDraw draw = sampler.Next();
    fleet
        ->Submit(workload.RequestFor(draw.rank, draw.variant,
                                     /*deadline_ms=*/0.0, /*pages=*/4))
        .get();
  }
  row.stats = fleet->Stats();
  fleet->Stop();
  const int64_t lookups = row.stats.merged.score_cache_hits +
                          row.stats.merged.score_cache_misses;
  row.hit_rate = lookups > 0 ? static_cast<double>(
                                   row.stats.merged.score_cache_hits) /
                                   static_cast<double>(lookups)
                             : 0.0;
  return row;
}

std::string Bool(bool b) { return b ? "true" : "false"; }

void WriteJson(const std::string& path, const FleetLoadFlags& flags,
               int cores, double single_qps, double fleet_qps,
               const OpenLoopResult& uncontended,
               const std::vector<SweepRow>& sweep, double deadline_ms,
               double max_admitted_p99, double max_unshed_p99,
               const std::vector<CacheSweepRow>& cache_sweep,
               bool hit_p99_lt_miss_p99, double hit_p50_speedup) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double ratio = single_qps > 0.0 ? fleet_qps / single_qps : 0.0;
  const double p99_ratio = uncontended.stats.merged.p99_ms > 0.0
                               ? max_admitted_p99 /
                                     uncontended.stats.merged.p99_ms
                               : 0.0;
  out << "{\n";
  out << "  \"bench\": \"fleet_load\",\n";
  out << "  \"smoke\": " << Bool(flags.smoke) << ",\n";
  out << "  \"cores\": " << cores << ",\n";
  out << "  \"shards\": " << flags.shards << ",\n";
  out << "  \"users\": " << flags.users << ",\n";
  out << "  \"zipf_exponent\": " << flags.zipf << ",\n";
  out << "  \"deadline_ms\": " << deadline_ms << ",\n";
  out << "  \"closed_loop\": {\"single_engine_qps\": " << single_qps
      << ", \"fleet_qps\": " << fleet_qps << ", \"ratio\": " << ratio
      << "},\n";
  out << "  \"uncontended\": {\"offered_qps\": " << uncontended.offered_qps
      << ", \"p50_ms\": " << uncontended.stats.merged.p50_ms
      << ", \"p99_ms\": " << uncontended.stats.merged.p99_ms << "},\n";
  out << "  \"overload_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    const FleetStats& stats = row.result.stats;
    out << "    {\"offered_qps\": " << row.offered_qps
        << ", \"admission\": " << Bool(row.admission)
        << ", \"accepted_p99_ms\": " << stats.merged.p99_ms
        << ", \"accepted_p50_ms\": " << stats.merged.p50_ms
        << ", \"qps\": " << stats.merged.qps
        << ", \"shed_rate\": " << stats.shed_rate
        << ", \"degraded\": " << stats.degraded
        << ", \"imbalance\": " << stats.imbalance << ", \"shards\": [";
    for (size_t s = 0; s < stats.shards.size(); ++s) {
      const ShardStatsSnapshot& shard = stats.shards[s];
      out << (s == 0 ? "" : ", ") << "{\"shard\": " << shard.shard_id
          << ", \"requests\": " << shard.engine.requests
          << ", \"p99_ms\": " << shard.engine.p99_ms
          << ", \"qps\": " << shard.engine.qps
          << ", \"shed\": " << shard.shed
          << ", \"degraded\": " << shard.degraded << "}";
    }
    out << "]}" << (i + 1 == sweep.size() ? "" : ",") << "\n";
  }
  out << "  ],\n";
  out << "  \"cache_sweep\": [\n";
  for (size_t i = 0; i < cache_sweep.size(); ++i) {
    const CacheSweepRow& row = cache_sweep[i];
    const ServingStatsSnapshot& merged = row.stats.merged;
    out << "    {\"repeat_rate\": " << row.repeat_rate
        << ", \"cache\": " << Bool(row.cache_on)
        << ", \"requests\": " << row.requests
        << ", \"hit_rate\": " << row.hit_rate
        << ", \"score_cache_hits\": " << merged.score_cache_hits
        << ", \"score_cache_misses\": " << merged.score_cache_misses
        << ", \"score_cache_invalidations\": "
        << merged.score_cache_invalidations
        << ", \"encoding_cache_hits\": " << merged.encoding_cache_hits
        << ", \"gate_cache_hits\": " << merged.gate_cache_hits
        << ", \"score_cache_entries\": " << merged.score_cache_entries
        << ", \"score_cache_bytes\": " << merged.score_cache_bytes
        << ", \"encoding_cache_bytes\": " << merged.encoding_cache_bytes
        << ", \"gate_cache_bytes\": " << merged.gate_cache_bytes
        << ", \"p50_ms\": " << merged.p50_ms
        << ", \"p99_ms\": " << merged.p99_ms
        << ", \"score_hit_p50_ms\": " << merged.score_hit_p50_ms
        << ", \"score_hit_p99_ms\": " << merged.score_hit_p99_ms
        << ", \"score_miss_p50_ms\": " << merged.score_miss_p50_ms
        << ", \"score_miss_p99_ms\": " << merged.score_miss_p99_ms
        << ", \"qps\": " << merged.qps << "}"
        << (i + 1 == cache_sweep.size() ? "" : ",") << "\n";
  }
  out << "  ],\n";
  // The acceptance gates, RECORDED rather than enforced: the fleet/
  // single ratio is a multi-core property (compute-bound at ~1x on one
  // core), so the artifact carries the core count alongside it.
  out << "  \"gates\": {\n";
  out << "    \"uncontended_p99_ms\": " << uncontended.stats.merged.p99_ms
      << ",\n";
  out << "    \"max_admitted_p99_ms\": " << max_admitted_p99 << ",\n";
  out << "    \"admitted_p99_over_uncontended\": " << p99_ratio << ",\n";
  out << "    \"admitted_p99_within_2x\": "
      << Bool(p99_ratio > 0.0 && p99_ratio <= 2.0) << ",\n";
  out << "    \"no_admission_max_p99_ms\": " << max_unshed_p99 << ",\n";
  out << "    \"fleet_vs_single_qps_ratio\": " << ratio << ",\n";
  out << "    \"fleet_3x_single_qps\": " << Bool(ratio >= 3.0) << ",\n";
  out << "    \"cache_hit_p99_lt_miss_p99\": " << Bool(hit_p99_lt_miss_p99)
      << ",\n";
  out << "    \"cache_hit_p50_speedup_vs_off\": " << hit_p50_speedup << ",\n";
  out << "    \"cache_hit_p50_2x_vs_off\": "
      << Bool(hit_p50_speedup >= 2.0) << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("[fleet-load] JSON artifact written to %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  FleetLoadFlags flags;
  FlagSet flag_set(
      "Open-loop fleet load harness: Zipf users + diurnal/bursty arrivals "
      "through a sharded serving fleet, with an overload sweep comparing "
      "deadline-aware admission control against unbounded queueing");
  flag_set.AddInt("shards", &flags.shards, "fleet shard count");
  flag_set.AddInt("users", &flags.users, "distinct synthetic users");
  flag_set.AddDouble("zipf", &flags.zipf, "Zipf popularity exponent");
  flag_set.AddDouble("duration_s", &flags.duration_s,
                     "open-loop run duration per sweep point");
  flag_set.AddInt("clients", &flags.clients, "closed-loop client threads");
  flag_set.AddInt("seed", &flags.seed, "base RNG seed");
  flag_set.AddDouble("repeat_rate", &flags.repeat_rate,
                     "cache-sweep exact-repeat probability "
                     "(< 0 sweeps 0.0/0.5/0.8)");
  flag_set.AddBool("smoke", &flags.smoke,
                   "CI smoke sizing (short runs, small corpus)");
  flag_set.AddString("json", &flags.json,
                     "path for the machine-readable artifact (empty = skip)");
  Status status = flag_set.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.smoke) flags.duration_s = std::min(flags.duration_s, 1.5);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("[fleet-load] building workload (%lld users, zipf %.2f)...\n",
              static_cast<long long>(flags.users), flags.zipf);
  const Workload workload = MakeWorkload(flags);

  // --- Phase 1: closed-loop scaling baseline. ---
  const int64_t per_client = flags.smoke ? 100 : 400;
  std::printf("[fleet-load] closed loop: single engine...\n");
  const double single_qps =
      SingleEngineClosedLoopQps(workload, flags, per_client);
  std::printf("[fleet-load] closed loop: %lld-shard fleet...\n",
              static_cast<long long>(flags.shards));
  const double fleet_qps = FleetClosedLoopQps(workload, flags, per_client);
  const double ratio = single_qps > 0.0 ? fleet_qps / single_qps : 0.0;
  std::printf(
      "[fleet-load] closed loop: single %.0f qps, fleet %.0f qps "
      "(%.2fx on %d core%s)\n",
      single_qps, fleet_qps, ratio, cores, cores == 1 ? "" : "s");

  // --- Phase 2: uncontended calibration (open loop, light load). ---
  const double capacity_qps = std::max(fleet_qps, 1.0);
  auto calibration_fleet = MakeFleet(
      workload, MakeFleetOptions(flags, /*admission=*/false, 20.0));
  std::printf("[fleet-load] calibrating uncontended p99...\n");
  // Calibration runs FLAT (no diurnal swing, no bursts) at a fraction
  // of measured capacity: the number it produces is the no-load tail.
  const OpenLoopResult uncontended = RunOpenLoop(
      calibration_fleet.get(), workload, 0.25 * capacity_qps,
      flags.duration_s, /*deadline_ms=*/0.0,
      static_cast<uint64_t>(flags.seed) + 300, /*flat=*/true);
  calibration_fleet->Stop();
  calibration_fleet.reset();
  // The admission deadline the sweep's requests carry: above the
  // no-load tail (nothing sheds uncontended), but with headroom below
  // the 2x gate the artifact records — the controller's queue-delay
  // estimate is optimistic by the flush wait it cannot observe, so
  // accepted sojourns land somewhat above the deadline under overload.
  const double deadline_ms =
      std::max(1.3 * uncontended.stats.merged.p99_ms, 1.0);
  std::printf("[fleet-load] uncontended p99 %.3f ms -> deadline %.3f ms\n",
              uncontended.stats.merged.p99_ms, deadline_ms);

  // --- Phase 3: overload sweep, admission on vs off. ---
  const double kMultipliers[] = {0.6, 1.5, 3.0};
  std::vector<SweepRow> sweep;
  double max_admitted_p99 = 0.0;
  double max_unshed_p99 = 0.0;
  for (double multiplier : kMultipliers) {
    const double rate = multiplier * capacity_qps;
    for (bool admission : {true, false}) {
      std::printf("[fleet-load] open loop %.0f qps (%.1fx), admission %s...\n",
                  rate, multiplier, admission ? "ON" : "OFF");
      auto fleet = MakeFleet(
          workload, MakeFleetOptions(flags, admission, deadline_ms));
      SweepRow row;
      row.offered_qps = rate;
      row.admission = admission;
      row.result = RunOpenLoop(fleet.get(), workload, rate, flags.duration_s,
                               deadline_ms,
                               static_cast<uint64_t>(flags.seed) + 400 +
                                   static_cast<uint64_t>(multiplier * 10) +
                                   (admission ? 0 : 1));
      fleet->Stop();
      if (admission) {
        max_admitted_p99 =
            std::max(max_admitted_p99, row.result.stats.merged.p99_ms);
      } else {
        max_unshed_p99 =
            std::max(max_unshed_p99, row.result.stats.merged.p99_ms);
      }
      sweep.push_back(std::move(row));
    }
  }

  // --- Phase 4: session-cache sweep — hit-rate vs memory vs latency. ---
  const int64_t cache_requests = flags.smoke ? 1500 : 5000;
  std::vector<CacheSweepRow> cache_sweep;
  const std::vector<double> repeat_rates =
      flags.repeat_rate >= 0.0 ? std::vector<double>{flags.repeat_rate}
                               : std::vector<double>{0.0, 0.5, 0.8};
  for (double repeat_rate : repeat_rates) {
    for (bool cache_on : {true, false}) {
      std::printf("[fleet-load] cache sweep: repeat %.2f, cache %s...\n",
                  repeat_rate, cache_on ? "ON" : "OFF");
      cache_sweep.push_back(RunCacheLoad(workload, flags, repeat_rate,
                                         cache_on, cache_requests));
    }
  }
  // Gates from the highest repeat rate >= 0.5 (where the level-1 cache
  // should be earning its memory): hit-path p99 strictly below the
  // miss-path p99 of the SAME run, and hit-path p50 at least 2x faster
  // than the cache-off p50 at the same repeat mix.
  bool hit_p99_lt_miss_p99 = false;
  double hit_p50_speedup = 0.0;
  for (const CacheSweepRow& row : cache_sweep) {
    if (!row.cache_on || row.repeat_rate < 0.5) continue;
    const ServingStatsSnapshot& merged = row.stats.merged;
    if (merged.score_hit_p99_ms > 0.0 &&
        merged.score_hit_p99_ms < merged.score_miss_p99_ms) {
      hit_p99_lt_miss_p99 = true;
    }
    for (const CacheSweepRow& off : cache_sweep) {
      if (off.cache_on || off.repeat_rate != row.repeat_rate) continue;
      if (merged.score_hit_p50_ms > 0.0 && off.stats.merged.p50_ms > 0.0) {
        hit_p50_speedup =
            std::max(hit_p50_speedup,
                     off.stats.merged.p50_ms / merged.score_hit_p50_ms);
      }
    }
  }

  TablePrinter cache_table(
      "Session-cache sweep (closed loop; level-1 hit/miss split)");
  cache_table.SetHeader({"Repeat", "Cache", "Hit rate", "Resident KiB",
                         "p50 ms", "p99 ms", "Hit p50", "Hit p99",
                         "Miss p50", "Miss p99", "QPS"});
  for (const CacheSweepRow& row : cache_sweep) {
    const ServingStatsSnapshot& merged = row.stats.merged;
    const double resident_kib =
        static_cast<double>(merged.score_cache_bytes +
                            merged.encoding_cache_bytes +
                            merged.gate_cache_bytes) /
        1024.0;
    cache_table.AddRow({FormatDouble(row.repeat_rate, 2),
                        row.cache_on ? "on" : "off",
                        FormatDouble(row.hit_rate, 3),
                        FormatDouble(resident_kib, 1),
                        FormatDouble(merged.p50_ms, 3),
                        FormatDouble(merged.p99_ms, 3),
                        FormatDouble(merged.score_hit_p50_ms, 3),
                        FormatDouble(merged.score_hit_p99_ms, 3),
                        FormatDouble(merged.score_miss_p50_ms, 3),
                        FormatDouble(merged.score_miss_p99_ms, 3),
                        FormatDouble(merged.qps, 0)});
  }
  cache_table.Print();
  std::printf(
      "[fleet-load] cache gates: hit p99 < miss p99 %s; hit-path p50 "
      "%.2fx faster than cache-off (>=2x %s)\n",
      hit_p99_lt_miss_p99 ? "PASS" : "MISS", hit_p50_speedup,
      hit_p50_speedup >= 2.0 ? "PASS" : "MISS");

  TablePrinter table("Fleet overload sweep (accepted-request percentiles)");
  table.SetHeader({"Offered QPS", "Admission", "Accepted", "Shed rate",
                   "Degraded", "p50 ms", "p99 ms", "QPS", "Imbalance"});
  for (const SweepRow& row : sweep) {
    const FleetStats& stats = row.result.stats;
    table.AddRow({FormatDouble(row.offered_qps, 0),
                  row.admission ? "on" : "off",
                  std::to_string(row.result.ok),
                  FormatDouble(stats.shed_rate, 3),
                  std::to_string(stats.degraded),
                  FormatDouble(stats.merged.p50_ms, 3),
                  FormatDouble(stats.merged.p99_ms, 3),
                  FormatDouble(stats.merged.qps, 0),
                  FormatDouble(stats.imbalance, 2)});
  }
  table.Print();

  std::printf(
      "[fleet-load] gates: admitted p99 %.3f ms vs 2x uncontended %.3f ms "
      "(%s); no-admission p99 grew to %.3f ms; fleet/single %.2fx "
      "(>=3x needs multi-core; %d core%s here)\n",
      max_admitted_p99, 2.0 * uncontended.stats.merged.p99_ms,
      max_admitted_p99 <= 2.0 * uncontended.stats.merged.p99_ms ? "PASS"
                                                                : "MISS",
      max_unshed_p99, ratio, cores, cores == 1 ? "" : "s");

  if (!flags.json.empty()) {
    WriteJson(flags.json, flags, cores, single_qps, fleet_qps, uncontended,
              sweep, deadline_ms, max_admitted_p99, max_unshed_p99,
              cache_sweep, hit_p99_lt_miss_p99, hit_p50_speedup);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
