// Staged-rollout serving bench: the cost of putting a TrafficRouter in
// front of every request, and the throughput of serving two live model
// versions during a ramp. The acceptance gate of the rollout subsystem
// is the Split0 row: with a route configured but 0% of traffic on the
// candidate, the routed path must stay within ~5% of the direct
// single-version path's p99 (the router adds one map probe; the
// no-route fast path adds only a relaxed atomic load).
//
//   BM_RolloutRank_Direct       no route configured (fast path)
//   BM_RolloutRank_Split0       route configured, 0% candidate traffic
//   BM_RolloutRank_Split500     50/50: both snapshots served, sticky
//   BM_RolloutSubmit_Split500   the same split through the async front
//                               (arms ride separate coalescing queues)
//   BM_Rollout_FullRampReplay   a whole health-gated ramp (5%->100%)
//                               through ReplayRollout, auto-promoting
//
// Each row reports p99_ms from the engine's exact latency samples so
// the Split0-vs-Direct comparison is at-equal-tail, not means-only.
// Smoke mode for CI: --benchmark_min_time=0.01 (scripts/check.sh).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/experiment_lib.h"
#include "serving/ab_test.h"
#include "serving/model_pool.h"
#include "serving/rollout.h"
#include "serving/serving_engine.h"

namespace {

using namespace awmoe;
using namespace awmoe::bench;

/// Shared fixture: a small AW-MoE stable model plus a distinct-weights
/// candidate (training quality is irrelevant for routing latency).
struct RolloutFixture {
  RolloutFixture() {
    JdConfig jd;
    jd.train_sessions = 50;
    jd.test_sessions = 200;
    jd.longtail1_sessions = 5;
    jd.longtail2_sessions = 5;
    jd.seed = 7;
    data = JdSyntheticGenerator(jd).Generate();
    standardizer.Fit(data.full_test);
    Rng rng_stable(11);
    AwMoeConfig config;
    stable = std::make_unique<AwMoeRanker>(data.meta, config, &rng_stable);
    Rng rng_candidate(13);
    candidate =
        std::make_unique<AwMoeRanker>(data.meta, config, &rng_candidate);
    sessions = GroupBySession(data.full_test);
  }

  static RolloutFixture& Get() {
    static RolloutFixture* fixture = new RolloutFixture();
    return *fixture;
  }

  /// A fresh pool with the stable model registered (and optionally the
  /// candidate staged), so each benchmark run starts from a clean
  /// rollout state.
  std::unique_ptr<ModelPool> MakePool(bool stage_candidate) {
    auto pool = std::make_unique<ModelPool>(data.meta, &standardizer);
    pool->Register("aw-moe", stable.get());
    if (stage_candidate) {
      pool->StageCandidate("aw-moe", candidate->Clone());
    }
    return pool;
  }

  JdDataset data;
  Standardizer standardizer;
  std::unique_ptr<AwMoeRanker> stable;
  std::unique_ptr<AwMoeRanker> candidate;
  std::vector<std::vector<const Example*>> sessions;
};

void RankLoop(ServingEngine* engine, RolloutFixture& fixture,
              benchmark::State& state) {
  std::vector<RankRequest> requests = MakeSessionRequests(fixture.sessions);
  size_t i = 0;
  for (auto _ : state) {
    RankResponse response = engine->Rank(requests[i % requests.size()]);
    benchmark::DoNotOptimize(response.scores);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["p99_ms"] = engine->stats().LatencyPercentileMs(99.0);
}

/// Baseline: a candidate is staged but NO route is configured — the
/// router answers from its fast path. This is the pre-rollout serving
/// cost plus one relaxed atomic load.
void BM_RolloutRank_Direct(benchmark::State& state) {
  RolloutFixture& fixture = RolloutFixture::Get();
  auto pool = fixture.MakePool(/*stage_candidate=*/true);
  ServingEngine engine(pool.get());
  RankLoop(&engine, fixture, state);
}
BENCHMARK(BM_RolloutRank_Direct)->Unit(benchmark::kMillisecond);

/// The acceptance row: route configured at split 0 — every request pays
/// the full router probe but all traffic still serves stable. p99 here
/// vs BM_RolloutRank_Direct is the routing overhead (gate: <= 5%).
void BM_RolloutRank_Split0(benchmark::State& state) {
  RolloutFixture& fixture = RolloutFixture::Get();
  auto pool = fixture.MakePool(/*stage_candidate=*/true);
  ServingEngine engine(pool.get());
  engine.router()->SetSplit("aw-moe", 0);
  RankLoop(&engine, fixture, state);
}
BENCHMARK(BM_RolloutRank_Split0)->Unit(benchmark::kMillisecond);

/// Mid-ramp: half the sessions serve the candidate snapshot. Same
/// work per forward; the cost difference vs Split0 is gate-cache
/// warm-up split across two snapshots.
void BM_RolloutRank_Split500(benchmark::State& state) {
  RolloutFixture& fixture = RolloutFixture::Get();
  auto pool = fixture.MakePool(/*stage_candidate=*/true);
  ServingEngine engine(pool.get());
  engine.router()->SetSplit("aw-moe", 500);
  int64_t candidate_requests = 0;
  std::vector<RankRequest> requests = MakeSessionRequests(fixture.sessions);
  size_t i = 0;
  for (auto _ : state) {
    RankResponse response = engine.Rank(requests[i % requests.size()]);
    benchmark::DoNotOptimize(response.scores);
    if (response.arm == RolloutArm::kCandidate) ++candidate_requests;
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["p99_ms"] = engine.stats().LatencyPercentileMs(99.0);
  state.counters["candidate_share"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(candidate_requests) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_RolloutRank_Split500)->Unit(benchmark::kMillisecond);

/// The async front mid-ramp: 4 client threads stream sessions through
/// Submit(); the two arms ride separate coalescing queues (one route
/// key each), so a flush never mixes snapshots.
void BM_RolloutSubmit_Split500(benchmark::State& state) {
  RolloutFixture& fixture = RolloutFixture::Get();
  auto pool = fixture.MakePool(/*stage_candidate=*/true);
  ServingEngine engine(pool.get());
  engine.router()->SetSplit("aw-moe", 500);
  std::vector<RankRequest> requests = MakeSessionRequests(fixture.sessions);
  constexpr size_t kClients = 4;
  size_t round = 0;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([c, round, &engine, &requests] {
        for (size_t s = c; s < 32; s += kClients) {
          engine.Submit(requests[(round * 32 + s) % requests.size()]).get();
        }
      });
    }
    for (std::thread& client : clients) client.join();
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
  ServingStatsSnapshot snap = engine.Stats();
  state.counters["p99_ms"] = snap.p99_ms;
  state.counters["occupancy"] = snap.mean_batch_requests;
  engine.Stop();
}
BENCHMARK(BM_RolloutSubmit_Split500)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// A whole staged rollout per iteration: stage the candidate, walk a
/// 5%->25%->100% ramp with the health gate evaluating real per-version
/// p99 windows, auto-promote. `rounds` counts the session sweeps the
/// ramp needed; `promoted` must stay 1.0.
void BM_Rollout_FullRampReplay(benchmark::State& state) {
  RolloutFixture& fixture = RolloutFixture::Get();
  // A 64-session sweep per round keeps one full ramp around ~1k
  // forwards. The ramp starts at 5%: at 1% of 64 sessions the sticky
  // bucketing can legitimately assign NOBODY to the candidate, and the
  // evidence gate would (correctly) hold the ramp forever.
  const std::vector<std::vector<const Example*>> sweep(
      fixture.sessions.begin(),
      fixture.sessions.begin() +
          std::min<size_t>(fixture.sessions.size(), 64));
  int64_t rounds = 0;
  int64_t promoted = 0;
  for (auto _ : state) {
    auto pool = fixture.MakePool(/*stage_candidate=*/false);
    ServingEngine engine(pool.get());
    RolloutOptions options;
    options.ramp_permille = {50, 250, 1000};
    options.min_stage_requests = 20;
    // The two models are architecture-identical, so the default 1.5x
    // p99 gate would only trip on scheduler noise; widen it — this row
    // measures ramp mechanics, not container jitter.
    options.max_p99_ratio = 20.0;
    options.p99_slack_ms = 50.0;
    RolloutController controller(pool.get(), engine.router(),
                                 &engine.stats(), "aw-moe", options);
    controller.Begin(fixture.candidate->Clone());
    RolloutReplayResult replay = ReplayRollout(&engine, &controller, sweep,
                                               /*max_rounds=*/64);
    benchmark::DoNotOptimize(replay);
    rounds += static_cast<int64_t>(replay.rounds.size());
    if (replay.final_state == RolloutState::kPromoted) ++promoted;
  }
  state.counters["rounds"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(rounds) /
                static_cast<double>(state.iterations());
  state.counters["promoted"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(promoted) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_Rollout_FullRampReplay)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
