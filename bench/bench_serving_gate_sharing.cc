// Reproduces the §III-F serving optimisation study on the ServingEngine
// API: because the AW-MoE gate reads only user and query features in the
// search scenario, it can be evaluated once per session and reused for
// every candidate item. The paper reports a >10x saving on the gate path
// and ~20 ms end-to-end session latency at JD scale. This
// google-benchmark binary measures
//   (a) per-item gate evaluation vs per-session gate sharing vs the
//       engine's cross-request gate cache, end to end;
//   (b) cross-session micro-batching (RankBatch) vs one forward per
//       session;
//   (c) the isolated gate-network path, whose per-session cost drops by a
//       factor equal to the session length (the >10x claim for their
//       10+-item sessions);
//   (d) the async Submit() front in closed-loop mode (one request in
//       flight: a free flush lane scores it at once, so this is the
//       Submit -> future floor) and open-loop burst mode (many requests
//       in flight: requests queued behind a busy lane coalesce into
//       shared forward passes; batch occupancy is reported as a
//       counter);
//   (e) the replica scaling sweep: a multi-client closed-loop storm on
//       ONE hot model with replicas = {1, 2, 4} pool lanes (and as many
//       async flush lanes), reporting throughput, p99, and the
//       per-replica lane-occupancy counters — so the replica speedup is
//       measured, not asserted.
//
// Smoke mode for CI: pass --benchmark_min_time=0.01 to cap each case at
// ~10 ms of measurement (scripts/check.sh does this).

#include <benchmark/benchmark.h>

#include <future>
#include <thread>
#include <vector>

#include "common/experiment_lib.h"
#include "serving/ab_test.h"
#include "serving/model_pool.h"
#include "serving/serving_engine.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

/// Shared fixture: a small trained-ish AW-MoE (training quality is
/// irrelevant for latency) plus a pool of sessions behind a registry.
struct ServingFixture {
  ServingFixture() {
    JdConfig jd;
    jd.train_sessions = 50;
    jd.test_sessions = 200;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 7;
    data = JdSyntheticGenerator(jd).Generate();
    standardizer.Fit(data.full_test);
    Rng rng(11);
    AwMoeConfig config;
    model = std::make_unique<AwMoeRanker>(data.meta, config, &rng);
    sessions = GroupBySession(data.full_test);
    registry = std::make_unique<ModelPool>(data.meta, &standardizer);
    registry->Register("aw-moe", model.get());
  }

  static ServingFixture& Get() {
    static ServingFixture* fixture = new ServingFixture();
    return *fixture;
  }

  ServingEngineOptions Options(bool share_gate, int64_t cache_capacity) {
    ServingEngineOptions options;
    options.share_gate = share_gate;
    options.gate_cache_capacity = cache_capacity;
    return options;
  }

  JdDataset data;
  Standardizer standardizer;
  std::unique_ptr<AwMoeRanker> model;
  std::vector<std::vector<const Example*>> sessions;
  std::unique_ptr<ModelPool> registry;
};

void RankOneByOne(ServingEngine* engine, ServingFixture& fixture,
                  benchmark::State& state) {
  std::vector<RankRequest> requests =
      MakeSessionRequests(fixture.sessions);
  size_t i = 0;
  for (auto _ : state) {
    RankResponse response = engine->Rank(requests[i % requests.size()]);
    benchmark::DoNotOptimize(response.scores);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RankSession_PerItemGate(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  ServingEngine engine(fixture.registry.get(),
                       fixture.Options(/*share_gate=*/false, 0));
  RankOneByOne(&engine, fixture, state);
}
BENCHMARK(BM_RankSession_PerItemGate)->Unit(benchmark::kMillisecond);

void BM_RankSession_SharedGate(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  // Cache off: every request pays one fresh gate evaluation (§III-F
  // within-request sharing only), isolating the sharing saving.
  ServingEngine engine(fixture.registry.get(),
                       fixture.Options(/*share_gate=*/true, 0));
  RankOneByOne(&engine, fixture, state);
}
BENCHMARK(BM_RankSession_SharedGate)->Unit(benchmark::kMillisecond);

void BM_RankSession_CachedGate(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  // Cache on: repeat requests for a session (pagination) skip the gate
  // network entirely.
  ServingEngine engine(fixture.registry.get(),
                       fixture.Options(/*share_gate=*/true, 4096));
  RankOneByOne(&engine, fixture, state);
}
BENCHMARK(BM_RankSession_CachedGate)->Unit(benchmark::kMillisecond);

/// Cross-session micro-batching: 32 sessions per RankBatch call vs 32
/// Rank calls (the BM above). Items/s is the comparable number.
void BM_RankBatch_MicroBatched(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  ServingEngineOptions options = fixture.Options(/*share_gate=*/true, 0);
  options.max_batch_items = state.range(0);
  ServingEngine engine(fixture.registry.get(), options);
  constexpr size_t kSessionsPerCall = 32;
  size_t cursor = 0;
  int64_t items = 0;
  for (auto _ : state) {
    std::vector<RankRequest> requests;
    requests.reserve(kSessionsPerCall);
    for (size_t s = 0; s < kSessionsPerCall; ++s) {
      const auto& session =
          fixture.sessions[(cursor + s) % fixture.sessions.size()];
      RankRequest request;
      request.session_id = session[0]->session_id;
      request.items = session;
      items += static_cast<int64_t>(session.size());
      requests.push_back(std::move(request));
    }
    cursor += kSessionsPerCall;
    auto responses = engine.RankBatch(requests);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_RankBatch_MicroBatched)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// Closed-loop async serving: one request in flight at a time through
/// Submit. The flush lane is free, so a lone request flushes at once:
/// this measures the Submit -> future latency floor, one hand-off to
/// the lane plus one batch-of-one forward.
void BM_AsyncSubmit_ClosedLoop(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  ServingEngineOptions options = fixture.Options(/*share_gate=*/true, 0);
  ServingEngine engine(fixture.registry.get(), options);
  std::vector<RankRequest> requests = MakeSessionRequests(fixture.sessions);
  size_t i = 0;
  for (auto _ : state) {
    RankResponse response =
        engine.Submit(requests[i % requests.size()]).get();
    benchmark::DoNotOptimize(response.scores);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  engine.Stop();
}
// UseRealTime: the work happens on the flusher thread, so CPU time of
// the submitting thread would wildly overstate throughput.
BENCHMARK(BM_AsyncSubmit_ClosedLoop)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Open-loop async serving: a burst of single-session submits lands in
/// the queue while the lane scores the first, so the engine coalesces
/// the rest into cap-bounded shared forward passes — the cross-session
/// amortisation RankBatch only gets when one caller already holds all
/// the requests. The "occupancy" counter is mean requests per forward.
void BM_AsyncSubmit_OpenLoopBurst(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  ServingEngineOptions options = fixture.Options(/*share_gate=*/true, 0);
  ServingEngine engine(fixture.registry.get(), options);
  std::vector<RankRequest> requests = MakeSessionRequests(fixture.sessions);
  const size_t burst = static_cast<size_t>(state.range(0));
  size_t cursor = 0;
  int64_t items = 0;
  for (auto _ : state) {
    std::vector<std::future<RankResponse>> futures;
    futures.reserve(burst);
    for (size_t s = 0; s < burst; ++s) {
      const RankRequest& request = requests[(cursor + s) % requests.size()];
      items += static_cast<int64_t>(request.items.size());
      futures.push_back(engine.Submit(request));
    }
    cursor += burst;
    for (auto& future : futures) {
      RankResponse response = future.get();
      benchmark::DoNotOptimize(response.scores);
    }
  }
  state.SetItemsProcessed(items);
  state.counters["occupancy"] = engine.Stats().mean_batch_requests;
  engine.Stop();
}
BENCHMARK(BM_AsyncSubmit_OpenLoopBurst)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Replica scaling sweep (the tentpole's acceptance measurement): 4
/// closed-loop clients hammer ONE hot model through Submit while the
/// pool serves it with Arg replicas and the async front runs one flush
/// lane per replica. With 1 replica every micro-batch serialises on a
/// single lane; with N, up to N micro-batches are in flight on N
/// distinct weight clones. Counters: items/s (throughput), p99_ms (tail
/// at that load), lanes_mean/lanes_max (per-replica lane occupancy
/// sampled at each lease), occupancy (requests per forward).
void BM_AsyncSubmit_ClosedLoopReplicas(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  const int replicas = static_cast<int>(state.range(0));
  ModelPoolOptions pool_options;
  pool_options.replicas = replicas;
  // A private pool per run: replica lanes are a pool property, and the
  // shared fixture pool must stay single-replica for the other benches.
  ModelPool pool(fixture.data.meta, &fixture.standardizer, pool_options);
  pool.Register("aw-moe", fixture.model.get());
  ServingEngineOptions options = fixture.Options(/*share_gate=*/true, 0);
  // Per-request micro-batches: a candidate cap of ~one session keeps
  // concurrent requests in separate flushes, which is the regime where
  // replica lanes pay — with a big cap the whole storm coalesces into
  // one batch per cycle and a single lane serves it regardless of N.
  options.max_batch_candidates = 16;
  ServingEngine engine(&pool, options);
  std::vector<RankRequest> requests = MakeSessionRequests(fixture.sessions);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  int64_t items = 0;
  for (auto _ : state) {
    // One iteration = a sustained storm: each client runs its own
    // closed-loop stream of kPerClient requests, so completions stagger
    // and the queue always holds work for an idle lane (a lock-step
    // round would coalesce into one batch and hide the lanes).
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    const size_t base = static_cast<size_t>(state.iterations()) * kClients *
                        kPerClient;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&engine, &requests, base, c] {
        for (size_t m = 0; m < kPerClient; ++m) {
          const RankRequest& request =
              requests[(base + c * kPerClient + m) % requests.size()];
          RankResponse response = engine.Submit(request).get();
          benchmark::DoNotOptimize(response.scores);
        }
      });
    }
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t m = 0; m < kPerClient; ++m) {
        items += static_cast<int64_t>(
            requests[(base + c * kPerClient + m) % requests.size()]
                .items.size());
      }
    }
    for (std::thread& client : clients) client.join();
  }
  state.SetItemsProcessed(items);
  ServingStatsSnapshot snap = engine.Stats();
  state.counters["p99_ms"] = snap.p99_ms;
  state.counters["occupancy"] = snap.mean_batch_requests;
  state.counters["lanes_mean"] = snap.mean_active_lanes;
  state.counters["lanes_max"] = static_cast<double>(snap.max_active_lanes);
  engine.Stop();
}
BENCHMARK(BM_AsyncSubmit_ClosedLoopReplicas)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Isolated gate path: per-item (session-length gate batch) vs shared
/// (1-row gate batch). The ratio is the §III-F resource saving.
void BM_GatePath_PerItem(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  const NoGradGuard no_grad;
  size_t i = 0;
  for (auto _ : state) {
    const auto& session = fixture.sessions[i % fixture.sessions.size()];
    Batch batch = CollateBatch(session, fixture.data.meta,
                               &fixture.standardizer);
    Var gate = fixture.model->GateRepresentation(batch);
    benchmark::DoNotOptimize(gate);
    ++i;
  }
}
BENCHMARK(BM_GatePath_PerItem)->Unit(benchmark::kMillisecond);

void BM_GatePath_SharedOncePerSession(benchmark::State& state) {
  ServingFixture& fixture = ServingFixture::Get();
  const NoGradGuard no_grad;
  size_t i = 0;
  for (auto _ : state) {
    const auto& session = fixture.sessions[i % fixture.sessions.size()];
    Batch probe =
        CollateBatch({session[0]}, fixture.data.meta, &fixture.standardizer);
    Var gate = fixture.model->GateRepresentation(probe);
    benchmark::DoNotOptimize(gate);
    ++i;
  }
}
BENCHMARK(BM_GatePath_SharedOncePerSession)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
