// Search-scenario example: trains AW-MoE on the synthetic JD log, then
// serves live search sessions through the ServingEngine with the §III-F
// per-session gate path, printing the ranked product list the search
// engine would return (Fig. 6 flow: query -> retrieve -> rank ->
// present) — including the two-stage retrieve -> rerank pipeline, where
// the listwise self-attention reranker re-scores the pointwise top-K as
// one slate (docs/reranking.md).

#include <algorithm>
#include <cstdio>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/jd_synthetic.h"
#include "models/listwise/listwise_reranker.h"
#include "serving/ab_test.h"
#include "serving/model_pool.h"
#include "serving/rollout.h"
#include "serving/serving_engine.h"
#include "serving/shard.h"
#include "serving/two_stage.h"
#include "train/retrain_driver.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;

int Run(int argc, char** argv) {
  int64_t train_sessions = 6000;
  int64_t epochs = 2;
  int64_t show_sessions = 3;
  int64_t seed = 20230608;

  FlagSet flags("Search serving example: AW-MoE behind the serving engine");
  flags.AddInt("train_sessions", &train_sessions, "training sessions");
  flags.AddInt("epochs", &epochs, "training epochs");
  flags.AddInt("show_sessions", &show_sessions, "sessions to display");
  flags.AddInt("seed", &seed, "global seed");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  JdConfig jd;
  jd.train_sessions = train_sessions;
  jd.test_sessions = 200;
  jd.longtail1_sessions = 20;
  jd.longtail2_sessions = 20;
  jd.seed = static_cast<uint64_t>(seed);
  std::printf("Generating synthetic search log...\n");
  JdDataset data = JdSyntheticGenerator(jd).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);

  std::printf("Training AW-MoE & CL (%lld sessions, %lld epochs)...\n",
              static_cast<long long>(train_sessions),
              static_cast<long long>(epochs));
  Rng rng(static_cast<uint64_t>(seed) + 1);
  AwMoeConfig config;
  config.name = "AW-MoE & CL";
  AwMoeRanker model(data.meta, config, &rng);
  TrainerConfig tc;
  tc.epochs = epochs;
  tc.contrastive = true;
  tc.seed = static_cast<uint64_t>(seed) + 2;
  Trainer trainer(&model, tc);
  trainer.Train(data.train, data.meta, &standardizer);

  // The listwise reranker for the two-stage demo below: scores a slate
  // jointly through self-attention, trained with the ListNet loss on
  // the same log (session-grouped batches).
  std::printf("Training the listwise reranker (ListNet)...\n");
  Rng listwise_rng(static_cast<uint64_t>(seed) + 7);
  ListwiseDims ldims;  // Defaults; slates here are top-K, well under cap.
  ListwiseReranker reranker(data.meta, config.dims, ldims, &listwise_rng);
  TrainerConfig ltc;
  ltc.epochs = epochs;
  ltc.lr = 1e-3f;
  ltc.seed = static_cast<uint64_t>(seed) + 8;
  Trainer listwise_trainer(&reranker, ltc);
  listwise_trainer.Train(data.train, data.meta, &standardizer);

  // Online serving behind the explicit request/response API: the model
  // is registered by name and expanded into two replica lanes (deep
  // weight clones), and the engine runs the §III-F gate path (computed
  // once per session, cached across repeat requests in the snapshot).
  ModelPoolOptions pool_options;
  pool_options.replicas = 2;
  ModelPool registry(data.meta, &standardizer, pool_options);
  registry.Register("aw-moe-cl", &model);
  registry.Register("listwise", &reranker);
  ServingEngine engine(&registry);
  auto sessions = GroupBySession(data.full_test);

  for (int64_t s = 0; s < show_sessions &&
                      s < static_cast<int64_t>(sessions.size());
       ++s) {
    const auto& session = sessions[static_cast<size_t>(s)];
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    RankResponse response = engine.Rank(request);
    const std::vector<double>& scores = response.scores;
    std::vector<size_t> order(scores.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return scores[a] > scores[b];
    });

    const Example& first = *session[0];
    TablePrinter table(StrFormat(
        "Session %lld | user %lld (history %lld items) | query %lld "
        "(category %lld)",
        static_cast<long long>(first.session_id),
        static_cast<long long>(first.user_id),
        static_cast<long long>(first.history_len),
        static_cast<long long>(first.query_id),
        static_cast<long long>(first.query_cat)));
    table.SetHeader({"Rank", "Item", "Cat", "Brand", "Score", "Purchased"});
    for (size_t r = 0; r < order.size(); ++r) {
      const Example& ex = *session[order[r]];
      table.AddRow({std::to_string(r + 1), std::to_string(ex.target_item),
                    std::to_string(ex.target_cat),
                    std::to_string(ex.target_brand),
                    FormatDouble(scores[order[r]], 4),
                    ex.label > 0.5f ? "YES" : ""});
    }
    table.Print();
  }

  ServingStatsSnapshot stats = engine.Stats();
  std::printf(
      "Served %lld sessions (%lld items): mean %.2f ms, p50 %.2f ms, "
      "p95 %.2f ms, p99 %.2f ms, %.0f req/s, gate sharing %s.\n",
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.items), stats.mean_ms, stats.p50_ms,
      stats.p95_ms, stats.p99_ms, stats.qps,
      engine.GateSharingActive() ? "ON" : "OFF");

  // --- Two-level result caching on the hot path (docs/serving.md). ---
  // Level 1: an exact repeat of (session, candidate set) is answered
  // from the snapshot's score cache without touching a replica lane.
  // Level 2: the same session over NEW candidates reuses the cached
  // behaviour-sequence encoding and runs only the candidate tail.
  // A behaviour-history update invalidates both; a hot swap starts the
  // new snapshot cache-cold by construction.
  {
    const auto& session =
        sessions[static_cast<size_t>(show_sessions) % sessions.size()];
    const auto delta = [&engine](ServingStatsSnapshot& prev) {
      const ServingStatsSnapshot now = engine.Stats();
      std::printf(
          "    counters: +%lld score hit, +%lld score miss, +%lld "
          "invalidation, +%lld encoding hit, +%lld gate hit\n",
          static_cast<long long>(now.score_cache_hits -
                                 prev.score_cache_hits),
          static_cast<long long>(now.score_cache_misses -
                                 prev.score_cache_misses),
          static_cast<long long>(now.score_cache_invalidations -
                                 prev.score_cache_invalidations),
          static_cast<long long>(now.encoding_cache_hits -
                                 prev.encoding_cache_hits),
          static_cast<long long>(now.gate_cache_hits -
                                 prev.gate_cache_hits));
      prev = now;
    };
    ServingStatsSnapshot prev = engine.Stats();

    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    engine.Rank(request);  // Cold: populates all three caches.
    RankResponse repeat = engine.Rank(request);
    std::printf(
        "\nResult cache: warm repeat -> level-1 %s (served without a "
        "replica lane: replica %d).\n",
        repeat.score_cache_hit ? "HIT" : "miss", repeat.replica);
    delta(prev);

    // Same session + history, new candidates: split the page in half
    // and request the second half (never seen as a set).
    RankRequest fresh;
    fresh.session_id = request.session_id;
    fresh.items.assign(session.begin() + session.size() / 2, session.end());
    RankResponse tail = engine.Rank(fresh);
    std::printf(
        "New candidates, same history -> level-1 miss, level-2 encoding "
        "%s + gate %s (candidate tail only).\n",
        tail.encoding_cache_hit ? "HIT" : "miss",
        tail.gate_cache_hit ? "HIT" : "miss");
    delta(prev);

    // The user acts: their behaviour history grows, so every cached
    // score and encoding for the session is stale.
    std::vector<Example> grown_storage;
    grown_storage.reserve(session.size());
    for (const Example* ex : session) {
      Example g = *ex;
      g.behavior_items.push_back(g.target_item);
      g.behavior_cats.push_back(g.target_cat);
      g.behavior_brands.push_back(g.target_brand);
      g.behavior_attrs.insert(g.behavior_attrs.end(), {0.5f, 0.5f, 0.5f});
      g.history_len = static_cast<int64_t>(g.behavior_items.size());
      grown_storage.push_back(std::move(g));
    }
    RankRequest updated;
    updated.session_id = request.session_id;
    for (const Example& g : grown_storage) updated.items.push_back(&g);
    RankResponse after_update = engine.Rank(updated);
    std::printf(
        "History update -> invalidated and re-scored (level-1 %s).\n",
        after_update.score_cache_hit ? "HIT" : "miss");
    delta(prev);

    const ServingStatsSnapshot gauges = engine.Stats();
    std::printf(
        "Resident: %lld score entries (%.1f KiB), %lld encodings "
        "(%.1f KiB), %lld gate rows (%.1f KiB); caches retire with "
        "their snapshot on hot swap.\n",
        static_cast<long long>(gauges.score_cache_entries),
        static_cast<double>(gauges.score_cache_bytes) / 1024.0,
        static_cast<long long>(gauges.encoding_cache_entries),
        static_cast<double>(gauges.encoding_cache_bytes) / 1024.0,
        static_cast<long long>(gauges.gate_cache_entries),
        static_cast<double>(gauges.gate_cache_bytes) / 1024.0);
  }

  // --- Two-stage retrieve -> rerank (docs/reranking.md). ---
  // Stage 1: the pointwise AW-MoE scores the whole candidate set.
  // Stage 2: the top-K go back through the engine as ONE slate to the
  // listwise reranker, whose self-attention re-scores each candidate
  // aware of what it competes with (the slate request stays atomic in
  // one forward, and the score cache is bypassed by the slate
  // contract). The blended ranking reranks the head, keeps the
  // retrieval tail.
  {
    TwoStageOptions two_stage_options;
    two_stage_options.retrieval_model = "aw-moe-cl";
    two_stage_options.rerank_model = "listwise";
    two_stage_options.top_k = 5;
    TwoStageRanker two_stage(&engine, two_stage_options);
    const auto& session = sessions[0];
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    TwoStageResult result = two_stage.Rank(request);
    TablePrinter two_stage_table(StrFormat(
        "Two-stage: session %lld, %zu candidates -> rerank top-%lld "
        "(retrieve %.2f ms + rerank %.2f ms)",
        static_cast<long long>(request.session_id), session.size(),
        static_cast<long long>(two_stage_options.top_k),
        result.retrieve_ms, result.rerank_ms));
    two_stage_table.SetHeader({"Final", "Item", "Retrieval", "Rerank",
                               "Stage", "Purchased"});
    std::vector<int> slate_position(session.size(), -1);
    for (size_t j = 0; j < result.slate.size(); ++j) {
      slate_position[result.slate[j]] = static_cast<int>(j);
    }
    for (size_t r = 0; r < result.ranking.size(); ++r) {
      const size_t idx = result.ranking[r];
      const int pos = slate_position[idx];
      two_stage_table.AddRow(
          {std::to_string(r + 1),
           std::to_string(session[idx]->target_item),
           FormatDouble(result.retrieval_scores[idx], 4),
           pos >= 0 ? FormatDouble(result.rerank_scores[static_cast<size_t>(
                          pos)], 4)
                    : "-",
           pos >= 0 ? "reranked" : "tail",
           session[idx]->label > 0.5f ? "YES" : ""});
    }
    two_stage_table.Print();
    const ServingStatsSnapshot slate_stats = engine.Stats();
    std::printf(
        "Slate stats: %lld slate(s), %lld candidates (mean %.1f), rerank "
        "stage p50 %.3f ms.\n",
        static_cast<long long>(slate_stats.slates),
        static_cast<long long>(slate_stats.slate_items),
        slate_stats.mean_slate_items, slate_stats.rerank_p50_ms);
  }

  // The async front: several client threads Submit() their sessions
  // concurrently and block only on their own future. Requests that
  // arrive while the flush lane is busy coalesce into shared forward
  // passes — occupancy > 1 below is traffic from different clients
  // amortising one forward.
  engine.ResetStats();
  constexpr size_t kClients = 3;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &engine, &sessions] {
      std::vector<std::future<RankResponse>> futures;
      for (size_t s = c; s < sessions.size(); s += kClients) {
        RankRequest request;
        request.session_id = sessions[s][0]->session_id;
        request.items = sessions[s];
        futures.push_back(engine.Submit(std::move(request)));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (std::thread& client : clients) client.join();

  ServingStatsSnapshot async_stats = engine.Stats();
  std::printf(
      "Async front (%zu client threads): %lld sessions, p99 %.2f ms, "
      "%.0f req/s, batch occupancy %.1f req/forward (max %lld), queue "
      "delay mean %.2f ms.\n",
      kClients, static_cast<long long>(async_stats.requests),
      async_stats.p99_ms, async_stats.qps, async_stats.mean_batch_requests,
      static_cast<long long>(async_stats.max_batch_requests),
      async_stats.queue_mean_ms);

  // Hot swap: production retrains continuously, so the pool publishes a
  // new model version while the engine keeps serving — in-flight
  // requests finish on the snapshot they started with, new requests see
  // the new version. (The "retrained" model here is a weight clone;
  // in production it would come from the trainer.)
  RankRequest probe;
  probe.session_id = sessions[0][0]->session_id;
  probe.items = sessions[0];
  engine.Rank(probe);  // Populate the old snapshot's caches.
  const RankResponse warm = engine.Rank(probe);
  const int64_t v_before = warm.model_version;
  const int64_t v_after = registry.UpdateModel("aw-moe-cl", model.Clone());
  // The caches live INSIDE the snapshot, so the swap retires them
  // wholesale: the same request that just hit now starts cold on v2.
  const RankResponse post_swap = engine.Rank(probe);
  std::printf(
      "Hot swap: version %lld -> %lld published with zero downtime "
      "(%lld swap(s), %lld live snapshot(s)); next request served on "
      "v%lld, cache-cold by construction (warm repeat was a level-1 %s, "
      "post-swap repeat a %s).\n",
      static_cast<long long>(v_before), static_cast<long long>(v_after),
      static_cast<long long>(registry.swap_count()),
      static_cast<long long>(registry.live_snapshots()),
      static_cast<long long>(post_swap.model_version),
      warm.score_cache_hit ? "HIT" : "miss",
      post_swap.score_cache_hit ? "HIT" : "MISS");

  // Staged rollout: instead of the all-or-nothing cutover above, the
  // next "retrained" model is ramped onto live traffic — the router
  // assigns a sticky sessions slice per stage, the controller checks
  // per-version p99/error health windows after every replay round, and
  // the candidate is auto-promoted (or auto-rolled-back the moment it
  // regresses) with both versions live and leasable throughout.
  RolloutOptions rollout_options;
  rollout_options.ramp_permille = {50, 250, 1000};  // 5% -> 25% -> 100%
  rollout_options.min_stage_requests = 20;
  RolloutController rollout(&registry, engine.router(), &engine.stats(),
                            "aw-moe-cl", rollout_options);
  const int64_t staged = rollout.Begin(model.Clone());
  // Gate-cache warm-up: the freshly staged candidate snapshot starts
  // gate-cold by construction (its LRU lives in the snapshot). Scoring
  // one gate row per known session into its cache BEFORE the router
  // sends it traffic means the candidate's very first ramp slice is
  // served from cached gates instead of paying cold probe forwards.
  const int64_t warmed = registry.WarmSessionGates(
      "aw-moe-cl", RolloutArm::kCandidate, sessions,
      engine.options().gate_cache_capacity);
  std::printf(
      "\nStaged rollout: candidate v%lld staged next to stable v%lld "
      "(%lld live snapshots), gate cache pre-warmed with %lld sessions, "
      "ramping at %d permille.\n",
      static_cast<long long>(staged),
      static_cast<long long>(rollout.stable_version()),
      static_cast<long long>(registry.live_snapshots()),
      static_cast<long long>(warmed), rollout.split_permille());
  RolloutReplayResult replay =
      ReplayRollout(&engine, &rollout, sessions, /*max_rounds=*/64);
  TablePrinter ramp_table("Health-gated ramp (replayed live traffic)");
  ramp_table.SetHeader({"Round", "Split", "Stable req", "Cand req",
                        "Stable p99", "Cand p99", "Decision"});
  for (const RolloutRoundRecord& round : replay.rounds) {
    ramp_table.AddRow(
        {std::to_string(round.round),
         StrFormat("%d", round.split_permille),
         std::to_string(round.stable_requests),
         std::to_string(round.candidate_requests),
         FormatDouble(round.stable_p99_ms, 3),
         FormatDouble(round.candidate_p99_ms, 3), round.decision});
  }
  ramp_table.Print();
  std::printf(
      "Rollout %s: stable now v%lld, %lld live snapshot(s), %lld/%lld "
      "requests served by the candidate during the ramp.\n",
      std::string(RolloutStateToString(replay.final_state)).c_str(),
      static_cast<long long>(replay.final_stable_version),
      static_cast<long long>(registry.live_snapshots()),
      static_cast<long long>(replay.total_candidate_requests),
      static_cast<long long>(replay.total_requests));

  // --- Continuous retraining: the loop closes (docs/training.md). ---
  // The rollouts above ramped hand-made clones; production retrains on
  // a cadence. The RetrainDriver owns a training replica of the served
  // model and, per round: generates the next data window, retrains the
  // replica with the data-parallel ParallelTrainer, stages the clone,
  // and ticks the health-gated ramp while shadow-scoring holdout
  // sessions on both arms — so the accuracy-drift gate can compare
  // engagement and auto-roll-back a regressed retrain. Round 1 below is
  // sabotaged (untrained weights shipped) to show exactly that: its
  // latency and error health are perfect, only the drift gate objects.
  RetrainOptions retrain;
  retrain.data = jd;
  retrain.data.train_sessions = std::min<int64_t>(train_sessions, 1500);
  retrain.data.test_sessions = 200;
  retrain.trainer.base.epochs = 1;
  retrain.trainer.base.contrastive = true;
  retrain.trainer.base.seed = static_cast<uint64_t>(seed) + 3;
  retrain.trainer.num_workers = 2;
  retrain.trainer.grad_accumulation = 2;
  retrain.rollout.ramp_permille = {250, 500, 1000};
  retrain.rollout.min_stage_requests = 10;
  retrain.rollout.max_p99_ratio = 50.0;  // Same net on both arms; the
  retrain.rollout.p99_slack_ms = 500.0;  // drift gate is the star here.
  retrain.rollout.min_drift_sessions = 40;
  retrain.rollout.max_engagement_drop = 0.10;
  retrain.rollout.engagement_slack = 0.05;
  RetrainDriver retrainer(&engine, &registry, "aw-moe-cl", model.Clone(),
                          retrain);
  std::printf(
      "\nContinuous retraining: 3 rounds (round 1 sabotaged with "
      "untrained weights), drift gate armed at %lld shadow sessions "
      "per arm.\n",
      static_cast<long long>(retrain.rollout.min_drift_sessions));
  std::vector<std::future<RankResponse>> retrain_live;
  size_t retrain_session = 0;
  const auto live_traffic = [&] {
    // Live Submit() traffic keeps flowing while each ramp ticks.
    for (int i = 0; i < 4; ++i) {
      RankRequest request;
      const auto& session = sessions[retrain_session++ % sessions.size()];
      request.session_id = session[0]->session_id;
      request.items = session;
      retrain_live.push_back(engine.Submit(std::move(request)));
    }
  };
  TablePrinter retrain_table("Retrain rounds through the drift gate");
  retrain_table.SetHeader({"Round", "Version", "State", "Ticks",
                           "Cand engage", "Stable engage", "Decision"});
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      retrainer.set_post_train_hook([&data](Ranker* staged) {
        Rng garbage_rng(991);
        AwMoeRanker garbage(data.meta, AwMoeConfig{}, &garbage_rng);
        CopyParametersInto(garbage, staged);
      });
    } else {
      retrainer.set_post_train_hook(nullptr);
    }
    const RetrainRoundResult result = retrainer.RunRound(live_traffic);
    for (auto& future : retrain_live) future.get();
    retrain_live.clear();
    retrain_table.AddRow(
        {std::to_string(result.round),
         std::to_string(result.staged_version),
         std::string(RolloutStateToString(result.final_state)),
         std::to_string(result.ticks),
         FormatDouble(result.candidate_engagement, 3),
         FormatDouble(result.stable_engagement, 3), result.last_decision});
  }
  retrain_table.Print();
  const ServingStatsSnapshot retrain_stats = engine.Stats();
  const int64_t final_version =
      registry.CurrentSnapshot("aw-moe-cl")->version();
  std::printf(
      "Retrain loop: %d promoted, %d rolled back; stable now v%lld; "
      "drift evidence %lld shadow sessions engine-wide (%lld engaged), "
      "v%lld window %lld sessions at %.3f engagement.\n",
      retrainer.promoted(), retrainer.rolled_back(),
      static_cast<long long>(final_version),
      static_cast<long long>(retrain_stats.drift_sessions),
      static_cast<long long>(retrain_stats.drift_engaged),
      static_cast<long long>(final_version),
      static_cast<long long>(
          engine.stats().VersionHealth("aw-moe-cl", final_version)
              .drift_sessions),
      engine.stats().VersionHealth("aw-moe-cl", final_version)
          .drift_engaged_rate);
  engine.Stop();

  // --- Fleet-scale serving: the same model behind 4 shards. ---
  // Each shard is an independent pool + engine; the consistent-hash
  // router pins every session to one shard (its gate cache rows live
  // exactly once fleet-wide), and a deadline-aware admission controller
  // sheds requests a shard could no longer serve in time. See
  // docs/fleet.md.
  FleetOptions fleet_options;
  fleet_options.num_shards = 4;
  // The demo box serves a full-size trained model single-threaded, so
  // the default deadline sits well above its per-request service time;
  // the burst below then tightens it to force shedding.
  fleet_options.admission.default_deadline_ms = 200.0;
  ShardedServingFleet fleet(data.meta, &standardizer, fleet_options);
  fleet.RegisterOwned("aw-moe-cl", model.Clone());
  std::printf(
      "\nFleet: %d shards x (pool + engine + admission), %d vnodes each "
      "on the placement ring.\n",
      fleet.num_shards(), fleet.router().vnodes_per_shard());

  // Fleet-wide staged rollout: stage once, ramp the split — every
  // shard's router buckets sessions identically, so one session sees
  // one arm no matter which shard serves it.
  const int64_t fleet_candidate =
      fleet.StageCandidate("aw-moe-cl", model.Clone());
  for (int permille : {50, 250, 1000}) {
    fleet.SetSplit("aw-moe-cl", permille);
    int64_t candidate_served = 0;
    for (const auto& session : sessions) {
      RankRequest request;
      request.session_id = session[0]->session_id;
      request.items = session;
      const RankResponse response = fleet.Submit(std::move(request)).get();
      if (response.status.ok() && response.arm == RolloutArm::kCandidate) {
        ++candidate_served;
      }
    }
    std::printf(
        "Fleet ramp %4d permille: candidate v%lld served %lld/%zu "
        "sessions (sticky fleet-wide).\n",
        permille, static_cast<long long>(fleet_candidate),
        static_cast<long long>(candidate_served), sessions.size());
  }
  fleet.PromoteCandidate("aw-moe-cl");

  // A tight-deadline burst: every session at once, each demanding an
  // answer in 30 ms. The first arrivals at each shard fit the budget;
  // once the queue's estimated drain time would blow it, the admission
  // controllers shed — in microseconds, instead of queueing a response
  // nobody is waiting for.
  std::vector<std::future<RankResponse>> burst;
  for (const auto& session : sessions) {
    RankRequest request;
    request.session_id = session[0]->session_id;
    request.items = session;
    request.deadline_ms = 30.0;
    burst.push_back(fleet.Submit(std::move(request)));
  }
  int64_t burst_ok = 0;
  int64_t burst_shed = 0;
  for (auto& future : burst) {
    future.get().status.ok() ? ++burst_ok : ++burst_shed;
  }

  const FleetStats fleet_stats = fleet.Stats();
  TablePrinter shard_table(StrFormat(
      "Per-shard serving (burst: %lld served, %lld shed at 30 ms deadline)",
      static_cast<long long>(burst_ok), static_cast<long long>(burst_shed)));
  shard_table.SetHeader({"Shard", "Requests", "p50 ms", "p99 ms", "QPS",
                         "Admitted", "Shed", "Degraded"});
  for (const ShardStatsSnapshot& shard : fleet_stats.shards) {
    shard_table.AddRow({std::to_string(shard.shard_id),
                        std::to_string(shard.engine.requests),
                        FormatDouble(shard.engine.p50_ms, 3),
                        FormatDouble(shard.engine.p99_ms, 3),
                        FormatDouble(shard.engine.qps, 0),
                        std::to_string(shard.admitted),
                        std::to_string(shard.shed),
                        std::to_string(shard.degraded)});
  }
  shard_table.Print();
  std::printf(
      "Fleet merged: %lld requests, p99 %.2f ms (pooled histogram "
      "percentile), %.0f req/s, shed rate %.3f, imbalance %.2f, %lld "
      "live snapshots.\n",
      static_cast<long long>(fleet_stats.merged.requests),
      fleet_stats.merged.p99_ms, fleet_stats.merged.qps,
      fleet_stats.shed_rate, fleet_stats.imbalance,
      static_cast<long long>(fleet.live_snapshots()));
  fleet.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
