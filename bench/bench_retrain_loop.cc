// Continuous-retraining loop bench (ROADMAP item 5): closes the
// train->serve loop end to end and measures it. One RetrainDriver runs
// `--rounds` rounds against a live ServingEngine: each round generates
// a fresh data window, retrains the replica with the data-parallel
// ParallelTrainer, stages the clone, and ticks the health-gated ramp
// while shadow scoring feeds the accuracy-drift gate — all with live
// Submit() traffic flowing between ticks. One round (`--sabotage`) ships
// untrained random weights instead, the canonical "training pipeline
// silently broke" regression that only the drift gate can catch: its
// latency and error health are perfect.
//
// `--json` writes the machine-readable artifact consumed by the CI
// bench-smoke upload, including the acceptance gates: at least one
// round auto-promoted, and the sabotaged round auto-rolled-back.

#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aw_moe.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/jd_synthetic.h"
#include "serving/model_pool.h"
#include "serving/request.h"
#include "serving/serving_engine.h"
#include "train/retrain_driver.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace awmoe;

constexpr char kModelName[] = "aw-moe-cl";

struct RetrainLoopFlags {
  int64_t rounds = 3;
  /// Round whose staged candidate is replaced by untrained random
  /// weights (< 0 disables the sabotage).
  int64_t sabotage = 1;
  int64_t workers = 2;
  int64_t seed = 20230608;
  bool smoke = false;
  std::string json;
};

/// The fixed world every retrain window draws from; only the per-round
/// seed moves, so vocabulary dims (and model shapes) stay constant.
JdConfig World(const RetrainLoopFlags& flags) {
  JdConfig config;
  config.num_users = 400;
  config.num_items = 300;
  config.num_categories = 8;
  config.brands_per_category = 4;
  config.num_shops = 20;
  config.train_sessions = flags.smoke ? 240 : 800;
  config.test_sessions = flags.smoke ? 60 : 150;
  config.longtail1_sessions = 5;
  config.longtail2_sessions = 5;
  config.seed = static_cast<uint64_t>(flags.seed);
  return config;
}

AwMoeConfig BenchModelConfig() {
  AwMoeConfig config;
  config.dims.emb_dim = 8;
  config.dims.tower_mlp = {16, 8};
  config.dims.activation_unit = {8, 4};
  config.dims.gate_unit = {8, 4};
  config.dims.expert = {16, 8};
  return config;
}

std::string Bool(bool b) { return b ? "true" : "false"; }

void WriteJson(const std::string& path, const RetrainLoopFlags& flags,
               const RetrainDriver& driver, double total_seconds,
               bool sabotage_rolled_back) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"retrain_loop\",\n";
  out << "  \"smoke\": " << Bool(flags.smoke) << ",\n";
  out << "  \"rounds\": " << driver.rounds() << ",\n";
  out << "  \"workers\": " << flags.workers << ",\n";
  out << "  \"sabotage_round\": " << flags.sabotage << ",\n";
  out << "  \"total_seconds\": " << total_seconds << ",\n";
  out << "  \"round_results\": [\n";
  const std::vector<RetrainRoundResult>& history = driver.history();
  for (size_t i = 0; i < history.size(); ++i) {
    const RetrainRoundResult& round = history[i];
    out << "    {\"round\": " << round.round
        << ", \"staged_version\": " << round.staged_version
        << ", \"state\": \"" << RolloutStateToString(round.final_state)
        << "\", \"ticks\": " << round.ticks
        << ", \"train_seconds\": " << round.train_seconds
        << ", \"final_rank_loss\": " << round.final_rank_loss
        << ", \"candidate_engagement\": " << round.candidate_engagement
        << ", \"stable_engagement\": " << round.stable_engagement << "}"
        << (i + 1 == history.size() ? "" : ",") << "\n";
  }
  out << "  ],\n";
  out << "  \"gates\": {\n";
  out << "    \"promoted\": " << driver.promoted() << ",\n";
  out << "    \"rolled_back\": " << driver.rolled_back() << ",\n";
  out << "    \"promoted_at_least_one\": " << Bool(driver.promoted() >= 1)
      << ",\n";
  out << "    \"sabotage_rolled_back\": " << Bool(sabotage_rolled_back)
      << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("[retrain-loop] JSON artifact written to %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  RetrainLoopFlags flags;
  FlagSet flag_set(
      "Continuous-retraining loop: data-parallel retrains staged through "
      "health-gated rollouts under live traffic, with one sabotaged round "
      "exercising the accuracy-drift auto-rollback");
  flag_set.AddInt("rounds", &flags.rounds, "retrain rounds to run");
  flag_set.AddInt("sabotage", &flags.sabotage,
                  "round index whose candidate ships untrained weights "
                  "(< 0 disables)");
  flag_set.AddInt("workers", &flags.workers, "ParallelTrainer workers");
  flag_set.AddInt("seed", &flags.seed, "base RNG seed");
  flag_set.AddBool("smoke", &flags.smoke,
                   "CI smoke sizing (small corpus, one epoch per round)");
  flag_set.AddString("json", &flags.json,
                     "path for the machine-readable artifact (empty = skip)");
  Status status = flag_set.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("[retrain-loop] generating world + training the baseline...\n");
  const JdConfig world = World(flags);
  JdDataset data = JdSyntheticGenerator(world).Generate();
  Standardizer standardizer;
  standardizer.Fit(data.train);
  Rng rng(31);
  auto baseline =
      std::make_unique<AwMoeRanker>(data.meta, BenchModelConfig(), &rng);
  TrainerConfig baseline_config;
  baseline_config.batch_size = 128;
  baseline_config.epochs = flags.smoke ? 4 : 6;
  baseline_config.seed = 5;
  Trainer baseline_trainer(baseline.get(), baseline_config);
  baseline_trainer.Train(data.train, data.meta, &standardizer);

  ModelPool pool(data.meta, &standardizer);
  std::unique_ptr<Ranker> replica = baseline->Clone();
  pool.RegisterOwned(kModelName, std::move(baseline));
  ServingEngine engine(&pool);

  RetrainOptions options;
  options.data = world;
  options.trainer.base.batch_size = 128;
  options.trainer.base.epochs = flags.smoke ? 1 : 2;
  options.trainer.base.seed = 100;
  options.trainer.num_workers = static_cast<int>(flags.workers);
  options.trainer.grad_accumulation = 2;
  options.rollout.ramp_permille = {250, 500, 1000};
  options.rollout.min_stage_requests = 10;
  // Latency gates stay permissive: both arms run the same architecture
  // on a shared CI core, and the drift gate is the one on display here.
  options.rollout.max_p99_ratio = 50.0;
  options.rollout.p99_slack_ms = 500.0;
  options.rollout.min_drift_sessions = 40;
  options.rollout.max_engagement_drop = 0.10;
  options.rollout.engagement_slack = 0.05;
  options.shadow_sessions_per_tick = 16;
  options.shadow_top_k = 3;
  RetrainDriver driver(&engine, &pool, kModelName, std::move(replica),
                       options);

  // Live traffic between ramp ticks: async Submits over the baseline
  // holdout sessions (futures collected at the end of each round).
  const std::vector<std::vector<const Example*>> live_sessions =
      GroupBySession(data.full_test);
  size_t next_session = 0;
  std::vector<std::future<RankResponse>> live;
  const auto between_ticks = [&] {
    for (int i = 0; i < 4; ++i) {
      const auto& session = live_sessions[next_session++ % live_sessions.size()];
      RankRequest request;
      request.session_id = session[0]->session_id;
      request.items = session;
      live.push_back(engine.Submit(std::move(request)));
    }
  };

  bool sabotage_rolled_back = false;
  Stopwatch total_watch;
  for (int64_t round = 0; round < flags.rounds; ++round) {
    const bool sabotaged = round == flags.sabotage;
    if (sabotaged) {
      driver.set_post_train_hook([&data](Ranker* staged) {
        Rng garbage_rng(991);
        AwMoeRanker garbage(data.meta, BenchModelConfig(), &garbage_rng);
        CopyParametersInto(garbage, staged);
      });
    } else {
      driver.set_post_train_hook(nullptr);
    }
    std::printf("[retrain-loop] round %lld%s...\n",
                static_cast<long long>(round),
                sabotaged ? " (sabotaged: shipping untrained weights)" : "");
    const RetrainRoundResult result = driver.RunRound(between_ticks);
    std::printf("[retrain-loop]   v%lld %s after %d ticks: %s\n",
                static_cast<long long>(result.staged_version),
                std::string(RolloutStateToString(result.final_state)).c_str(),
                result.ticks, result.last_decision.c_str());
    for (std::future<RankResponse>& future : live) future.get();
    live.clear();
    if (sabotaged &&
        result.final_state == RolloutState::kRolledBack) {
      sabotage_rolled_back = true;
    }
  }
  const double total_seconds = total_watch.ElapsedSeconds();
  engine.Stop(/*drain=*/true);

  TablePrinter table("Continuous retraining: rounds through the drift gate");
  table.SetHeader({"Round", "Version", "State", "Ticks", "Train s",
                   "Rank loss", "Cand engage", "Stable engage"});
  for (const RetrainRoundResult& round : driver.history()) {
    table.AddRow({std::to_string(round.round),
                  std::to_string(round.staged_version),
                  std::string(RolloutStateToString(round.final_state)),
                  std::to_string(round.ticks),
                  FormatDouble(round.train_seconds, 2),
                  FormatDouble(round.final_rank_loss, 4),
                  FormatDouble(round.candidate_engagement, 3),
                  FormatDouble(round.stable_engagement, 3)});
  }
  table.Print();

  const int64_t stable_version =
      pool.CurrentSnapshot(pool.ResolveName(kModelName))->version();
  std::printf(
      "[retrain-loop] gates: %d promoted / %d rolled back over %d rounds "
      "in %.1f s; stable now v%lld; sabotage auto-rollback %s; drift "
      "evidence %lld sessions\n",
      driver.promoted(), driver.rolled_back(), driver.rounds(), total_seconds,
      static_cast<long long>(stable_version),
      flags.sabotage < 0 ? "SKIPPED" : (sabotage_rolled_back ? "PASS" : "MISS"),
      static_cast<long long>(engine.Stats().drift_sessions));

  if (!flags.json.empty()) {
    WriteJson(flags.json, flags, driver, total_seconds, sabotage_rolled_back);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
