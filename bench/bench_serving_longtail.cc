// Long-tail serving bench (ROADMAP §Other): the paper's §IV-G/H tables
// show AW-MoE's accuracy edge concentrating on long-tail traffic, but
// none of the table benches ever pushed those splits through the
// serving path. This bench replays the generated long-tail splits
// through the ServingEngine — the same ModelPool/replica/snapshot stack
// production traffic uses — and reports latency percentiles and QPS by
// segment:
//   full      the head-heavy full test split,
//   longtail1 users with very few behaviours (cold history),
//   longtail2 elderly users (the paper's second long-tail cut).
// Each segment is served twice: synchronous request-at-a-time Rank()
// (honest per-session latency, exact replay) and the async Submit()
// front under a small closed-loop client fleet whose traffic is drawn
// from the shared Zipf popularity model (bench/common/load_model.h) —
// hot sessions repeat, exercising the cross-request gate cache, while
// the tail still shows up — so the p95/p99 gap between segments is
// visible in both serving modes.

#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "common/experiment_lib.h"
#include "common/load_model.h"
#include "serving/model_pool.h"
#include "serving/serving_engine.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

struct SegmentResult {
  std::string segment;
  std::string mode;
  int64_t sessions = 0;
  double mean_items = 0.0;
  ServingStatsSnapshot stats;
};

/// Request-at-a-time replay: per-session latency with no batching help.
SegmentResult ServeSync(ServingEngine* engine, const std::string& segment,
                        const std::vector<Example>& split) {
  engine->ResetStats();
  auto sessions = GroupBySession(split);
  auto requests = MakeSessionRequests(sessions);
  for (const RankRequest& request : requests) {
    engine->Rank(request);
  }
  SegmentResult result;
  result.segment = segment;
  result.mode = "sync";
  result.sessions = static_cast<int64_t>(requests.size());
  result.stats = engine->Stats();
  result.mean_items =
      result.sessions == 0
          ? 0.0
          : static_cast<double>(result.stats.items) /
                static_cast<double>(result.sessions);
  return result;
}

/// Closed-loop async replay: `kClients` threads stream a FIXED-SEED
/// Zipf-weighted draw of the segment's sessions through Submit(), so
/// the queue coalesces concurrent sessions, replica lanes overlap
/// flushes, and repeat draws of hot sessions hit the gate cache. Draw
/// count equals the segment's session count, so request volume matches
/// the sync replay exactly.
SegmentResult ServeAsync(ServingEngine* engine, const std::string& segment,
                         const std::vector<Example>& split, uint64_t seed) {
  engine->ResetStats();
  auto sessions = GroupBySession(split);
  auto requests = MakeSessionRequests(sessions);
  constexpr size_t kClients = 4;
  constexpr double kZipfExponent = 1.1;  // Head-heavy, tail still present.
  ZipfSampler zipf(static_cast<int64_t>(requests.size()), kZipfExponent,
                   seed);
  std::vector<size_t> draws(requests.size());
  for (size_t& draw : draws) draw = static_cast<size_t>(zipf.Next());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, engine, &requests, &draws] {
      for (size_t s = c; s < draws.size(); s += kClients) {
        engine->Submit(requests[draws[s]]).get();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  SegmentResult result;
  result.segment = segment;
  result.mode = "async";
  result.sessions = static_cast<int64_t>(requests.size());
  result.stats = engine->Stats();
  result.mean_items =
      result.sessions == 0
          ? 0.0
          : static_cast<double>(result.stats.items) /
                static_cast<double>(result.sessions);
  return result;
}

int Run(int argc, char** argv) {
  BenchFlags flags;
  flags.train_sessions = 4000;  // Serving latency needs shape, not SOTA.
  flags.epochs = 2;
  Status status = flags.Parse(
      argc, argv,
      "Long-tail serving: p50/p95/p99 by traffic segment through the "
      "replicated ServingEngine");
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("[longtail-serving] generating JD dataset...\n");
  JdDataset data = JdSyntheticGenerator(flags.MakeJdConfig()).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);

  std::printf("[longtail-serving] training AW-MoE & CL...\n");
  TrainedModel trained = TrainOne(
      ModelKind::kAwMoeCl, data.train, data.meta, &standardizer,
      ModelDims::Default(), flags.MakeTrainerConfig(),
      static_cast<uint64_t>(flags.seed) + 10);

  ModelPoolOptions pool_options;
  pool_options.replicas = 2;
  ModelPool pool(data.meta, &standardizer, pool_options);
  pool.RegisterOwned("aw-moe-cl", std::move(trained.model));
  ServingEngine engine(&pool);

  struct Segment {
    const char* name;
    const std::vector<Example>* split;
  };
  const Segment segments[] = {
      {"full", &data.full_test},
      {"longtail1", &data.longtail1_test},
      {"longtail2", &data.longtail2_test},
  };

  std::vector<SegmentResult> results;
  for (const Segment& segment : segments) {
    if (segment.split->empty()) {
      std::printf("[longtail-serving] segment %s empty; skipped\n",
                  segment.name);
      continue;
    }
    std::printf("[longtail-serving] replaying %s...\n", segment.name);
    results.push_back(ServeSync(&engine, segment.name, *segment.split));
    results.push_back(ServeAsync(&engine, segment.name, *segment.split,
                                 static_cast<uint64_t>(flags.seed)));
  }
  engine.Stop();

  TablePrinter table("Long-tail serving latency by segment (AW-MoE & CL)");
  table.SetHeader({"Segment", "Mode", "Sessions", "Items/req", "p50 ms",
                   "p95 ms", "p99 ms", "QPS", "Occupancy", "GateHit%"});
  for (const SegmentResult& r : results) {
    const int64_t lookups = r.stats.gate_cache_hits + r.stats.gate_cache_misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : 100.0 * static_cast<double>(r.stats.gate_cache_hits) /
                           static_cast<double>(lookups);
    table.AddRow({r.segment, r.mode, std::to_string(r.sessions),
                  FormatDouble(r.mean_items, 1),
                  FormatDouble(r.stats.p50_ms, 3),
                  FormatDouble(r.stats.p95_ms, 3),
                  FormatDouble(r.stats.p99_ms, 3),
                  FormatDouble(r.stats.qps, 0),
                  FormatDouble(r.stats.mean_batch_requests, 2),
                  FormatDouble(hit_rate, 1)});
  }
  table.Print();

  // Long-tail sessions carry shorter behaviour histories, so their
  // per-session cost should be at or below the full split's; what the
  // table makes visible is whether the tail percentiles stay bounded on
  // every segment (the paper's ~20 ms production budget).
  std::printf(
      "[longtail-serving] gate sharing %s, %d replica lane(s); last "
      "segment: %lld leases, max active lanes %lld\n",
      engine.GateSharingActive() ? "ON" : "OFF", pool.replicas(),
      static_cast<long long>(engine.stats().snapshot_leases()),
      static_cast<long long>(engine.stats().max_active_lanes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
