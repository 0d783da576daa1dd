// train_epoch: ParallelTrainer with the contrastive objective (Eq. 11)
// on AW-MoE (ModelDims::Default) over the JD synthetic training set,
// then the test AUC of the model after exactly one epoch. The timed
// window runs optimizer steps back to back, cycling over the training
// set in step-sized chunks: each ParallelTrainer::TrainEpoch call sees
// one chunk of batch_size x grad_accumulation rows, which is exactly
// one step (the workers score the chunk's batches in parallel). The
// rows are shuffled once in set-up and the chunk order again every
// epoch, both from the run seed, so the first epoch is a whole-set
// shuffled pass. Departure from a plain ParallelTrainer::Train: each
// step builds its own BatchIterator over its chunk, so the iterator's
// whole-set shuffle is replaced by the one above and is not timed.
// This is the only workload on autograd, the mat scalar kernels and
// the BatchIterator.

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/aw_moe.h"
#include "core/contrastive.h"
#include "core/parallel_trainer.h"
#include "core/trainer.h"
#include "data/jd_synthetic.h"
#include "eval/metrics.h"
#include "models/model_dims.h"
#include "nn/optimizer.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads.h"

namespace awmoe {
namespace perfbench {

namespace {

constexpr int kWorkers = 2;
constexpr int64_t kBatch = 128;
constexpr int64_t kAccumulation = 2;  // Batches per step.
constexpr double kWindowS = 1.0;
constexpr size_t kMinWindowCount = 50;
constexpr int64_t kReplayBatches = 12;
/// Test AUC after one epoch must clear this; a model that learned
/// nothing sits at 0.5.
constexpr double kAucFloor = 0.55;

ParallelTrainerConfig TrainConfig() {
  ParallelTrainerConfig config;
  config.base.batch_size = kBatch;
  config.base.contrastive = true;
  config.base.seed = 5;
  config.num_workers = kWorkers;
  config.grad_accumulation = kAccumulation;
  return config;
}

/// Declaration order: the trainer points at the model.
struct TrainSystem {
  DatasetMeta meta;
  Standardizer standardizer;
  std::vector<Example> test;
  /// The shuffled training set cut into step-sized chunks.
  std::vector<std::vector<Example>> chunks;
  int64_t train_rows = 0;
  std::unique_ptr<Ranker> model;
  std::unique_ptr<ParallelTrainer> trainer;
};

std::unique_ptr<TrainSystem> SetUpTrain(const RunConfig& config) {
  JdConfig jd;
  jd.seed = config.seed;
  jd.train_sessions = config.tiny ? 150 : 2500;
  jd.test_sessions = config.tiny ? 40 : 400;
  jd.longtail1_sessions = 5;
  jd.longtail2_sessions = 5;
  if (config.tiny) {
    jd.num_users = 400;
    jd.num_items = 300;
  }
  JdDataset data = JdSyntheticGenerator(jd).Generate();

  auto sys = std::make_unique<TrainSystem>();
  sys->meta = data.meta;
  sys->standardizer.Fit(data.train);
  sys->test = std::move(data.full_test);
  sys->train_rows = static_cast<int64_t>(data.train.size());
  Rng shuffle_rng(config.seed * 7919 + 5);
  shuffle_rng.Shuffle(&data.train);
  const size_t chunk = static_cast<size_t>(kBatch * kAccumulation);
  for (size_t begin = 0; begin < data.train.size(); begin += chunk) {
    const size_t end = std::min(data.train.size(), begin + chunk);
    sys->chunks.emplace_back(std::make_move_iterator(data.train.begin() + begin),
                             std::make_move_iterator(data.train.begin() + end));
  }
  AwMoeConfig model_config;
  model_config.dims = ModelDims::Default();
  model_config.name = "AW-MoE & CL";
  Rng rng(7);
  sys->model = std::make_unique<AwMoeRanker>(sys->meta, model_config, &rng);
  sys->trainer = std::make_unique<ParallelTrainer>(sys->model.get(),
                                                   TrainConfig());
  return sys;
}

double TestAuc(Ranker* model, const TrainSystem& sys) {
  const std::vector<double> scores =
      Predict(model, sys.test, sys.meta, &sys.standardizer);
  return EvaluateRanking(sys.test, scores).auc;
}

/// Per-layer timings of single-threaded training steps replayed through
/// the public entry points: CollateBatch, BuildTrainingLoss,
/// Var::Backward, then ClipGradNorm + AdamW::Step.
struct TrainReplay {
  double collate_us_per_row = 0.0;
  double loss_forward_ms = 0.0;  // Per batch.
  double backward_ms = 0.0;      // Per batch.
  double optimizer_step_ms = 0.0;
  double overhead_pct = 0.0;
};

double ReplayTraining(const Ranker& snapshot, const TrainSystem& sys,
                      SpanRecorder* rec) {
  std::unique_ptr<Ranker> model = snapshot.Clone();
  std::vector<Var> params = model->Parameters();
  const ParallelTrainerConfig config = TrainConfig();
  AdamW optimizer(params, config.base.lr, config.base.weight_decay);
  Rng augment_rng(13);
  ContrastiveAugmenter augmenter(config.base.cl, &augment_rng);
  const Clock::time_point start = Clock::now();
  for (int64_t b = 0; b < kReplayBatches; ++b) {
    const std::vector<Example>& chunk =
        sys.chunks[static_cast<size_t>(b) % sys.chunks.size()];
    std::vector<const Example*> rows;
    for (size_t r = 0; r < chunk.size() && r < static_cast<size_t>(kBatch);
         ++r) {
      rows.push_back(&chunk[r]);
    }
    ScopedSpan step(rec, "train.step", b);
    Batch batch;
    {
      ScopedSpan span(rec, "data.collate", b, step.index());
      batch = CollateBatch(rows, sys.meta, &sys.standardizer);
    }
    Var loss;
    {
      ScopedSpan span(rec, "core.loss_forward", b, step.index());
      BatchLossTerms terms;
      loss = BuildTrainingLoss(model.get(), batch, config.base, &augmenter,
                               &terms);
    }
    {
      ScopedSpan span(rec, "autograd.backward", b, step.index());
      optimizer.ZeroGrad();
      loss.Backward();
    }
    {
      ScopedSpan span(rec, "nn.optimizer_step", b, step.index());
      ClipGradNorm(&params, config.base.grad_clip);
      optimizer.Step();
    }
  }
  return MillisBetween(start, Clock::now());
}

TrainReplay ReplayTrainingLayers(const Ranker& snapshot, const TrainSystem& sys,
                                 const std::string& trace_out) {
  SpanRecorder warm(false);
  ReplayTraining(snapshot, sys, &warm);
  double best_untraced = 0.0;
  double best_traced = 0.0;
  SpanRecorder best(true);
  for (int r = 0; r < 3; ++r) {
    SpanRecorder off(false);
    const double untraced = ReplayTraining(snapshot, sys, &off);
    if (r == 0 || untraced < best_untraced) best_untraced = untraced;
    SpanRecorder on(true);
    const double traced = ReplayTraining(snapshot, sys, &on);
    if (r == 0 || traced < best_traced) {
      best_traced = traced;
      best = std::move(on);
    }
  }
  const std::map<std::string, double> self = best.SelfTimesUs();
  auto self_us = [&](const char* key) {
    auto it = self.find(key);
    return it == self.end() ? 0.0 : it->second;
  };
  int64_t rows = 0;
  for (int64_t b = 0; b < kReplayBatches; ++b) {
    rows += std::min<int64_t>(
        kBatch, static_cast<int64_t>(
                    sys.chunks[static_cast<size_t>(b) % sys.chunks.size()]
                        .size()));
  }
  const double batches = static_cast<double>(kReplayBatches);
  TrainReplay out;
  out.collate_us_per_row = self_us("data.collate") / static_cast<double>(rows);
  out.loss_forward_ms = self_us("core.loss_forward") / batches / 1e3;
  out.backward_ms = self_us("autograd.backward") / batches / 1e3;
  out.optimizer_step_ms = self_us("nn.optimizer_step") / batches / 1e3;
  out.overhead_pct = 100.0 * (best_traced - best_untraced) / best_untraced;
  if (!trace_out.empty()) {
    AWMOE_CHECK(best.WriteJson(trace_out)) << "cannot write " << trace_out;
  }
  return out;
}

}  // namespace

RunResult RunTrainEpoch(const RunConfig& config) {
  std::unique_ptr<TrainSystem> sys;
  const double setup_s = MedianSetupSeconds(
      [&] { sys.reset(); }, [&] { sys = SetUpTrain(config); });
  const int64_t steps_per_epoch = static_cast<int64_t>(sys->chunks.size());

  std::vector<double> start_s;
  std::vector<double> step_ms;
  std::unique_ptr<Ranker> after_one_epoch;
  std::vector<size_t> chunk_order(sys->chunks.size());
  std::iota(chunk_order.begin(), chunk_order.end(), size_t{0});
  Rng order_rng(config.seed * 104729 + 7);
  int64_t steps = 0;
  int64_t rows = 0;
  int64_t non_finite = 0;
  auto step = [&] {
    if (steps > 0 && steps % steps_per_epoch == 0) {
      order_rng.Shuffle(&chunk_order);
    }
    const std::vector<Example>& chunk =
        sys->chunks[chunk_order[static_cast<size_t>(steps % steps_per_epoch)]];
    const EpochStats stats =
        sys->trainer->TrainEpoch(chunk, sys->meta, &sys->standardizer);
    if (!std::isfinite(stats.mean_rank_loss) ||
        !std::isfinite(stats.mean_cl_loss)) {
      ++non_finite;
    }
    ++steps;
    if (steps == steps_per_epoch) after_one_epoch = sys->model->Clone();
    return static_cast<int64_t>(chunk.size());
  };

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  Clock::time_point now = start;
  ClosedLoopWindows windows(kWindowS, start);
  while (now < end) {
    const Clock::time_point call = Clock::now();
    const int64_t step_rows = step();
    rows += step_rows;
    now = Clock::now();
    start_s.push_back(MillisBetween(start, call) / 1e3);
    step_ms.push_back(MillisBetween(call, now));
    windows.Record(step_ms.back(), now, static_cast<double>(step_rows));
  }
  windows.Finish(now);
  const double window_s = MillisBetween(start, now) / 1e3;
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const int64_t timed_steps = steps;
  // The AUC is taken after exactly one epoch whatever the machine's
  // speed; finish that epoch untimed when the window was too short.
  while (steps < steps_per_epoch) step();
  const double test_auc = TestAuc(after_one_epoch.get(), *sys);

  const LatencySummary latency = Summarize(step_ms);
  RunResult result;
  result.threads = 1 + kWorkers;  // Coordinator + workers.
  result.attempted = timed_steps;
  result.failed = non_finite;
  result.correct = non_finite == 0 && std::isfinite(test_auc) &&
                   test_auc > kAucFloor;
  SetEndToEnd(&result, "setup_s", setup_s);
  SetEndToEnd(&result, "p50_ms", TrimmedMean(windows.p50_ms()));
  SetEndToEnd(&result, "throughput_per_s",
              TrimmedMean(windows.units_per_s()));
  SetEndToEnd(&result, "cpu_ms_per_req", TrimmedMean(windows.cpu_ms_per_op()));
  SetEndToEnd(&result, "peak_rss_mb", PeakRssMb());

  result.report.Add("workers", static_cast<int64_t>(kWorkers))
      .Add("rows_per_step", kBatch * kAccumulation)
      .Add("train_rows", sys->train_rows)
      .Add("steps_per_epoch", steps_per_epoch)
      .Add("step_latency", latency.ToJson())
      .Add("p99_ms_lower_quartile_of_1s_windows",
           LowerQuartile(WindowP99s(start_s, step_ms, kWindowS,
                                    kMinWindowCount)))
      .Add("train_rows_per_s_whole_run", static_cast<double>(rows) / window_s)
      .Add("cpu_ms_per_step_whole_run",
           timed_steps > 0 ? 1e3 * cpu_s / timed_steps : 0.0)
      .AddRaw("window_p50s_ms", JsonArray(windows.p50_ms()))
      .AddRaw("window_cpu_ms_per_step", JsonArray(windows.cpu_ms_per_op()))
      .AddRaw("window_rows_per_s", JsonArray(windows.units_per_s()))
      .Add("test_auc_after_one_epoch", test_auc)
      .Add("test_auc_floor", kAucFloor)
      .Add("non_finite_steps", non_finite);

  if (config.trace) {
    const TrainReplay layers =
        ReplayTrainingLayers(*after_one_epoch, *sys, config.trace_out);
    SetPerLayer(&result, "data.collate_us_per_row", layers.collate_us_per_row);
    SetPerLayer(&result, "core.loss_forward_ms", layers.loss_forward_ms);
    SetPerLayer(&result, "autograd.backward_ms", layers.backward_ms);
    SetPerLayer(&result, "nn.optimizer_step_ms", layers.optimizer_step_ms);
    SetPerLayer(&result, "mat.matmul_gflops",
                ExpertMatMulGflops(sys->meta, ModelDims::Default(), kBatch,
                                   MatMulPath::kAutograd,
                                   config.tiny ? 0.02 : 0.2));
    // A step runs its batches' forward+backward in parallel on the
    // workers, then one optimizer step.
    const double replay_step_ms =
        layers.collate_us_per_row * kBatch / 1e3 + layers.loss_forward_ms +
        layers.backward_ms + layers.optimizer_step_ms;
    SetPerLayer(&result, "trace.coverage", replay_step_ms / latency.p50);
    SetPerLayer(&result, "trace.overhead_pct", layers.overhead_pct);
  }
  return result;
}

}  // namespace perfbench
}  // namespace awmoe
