#include "core/parallel_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "autograd/variable.h"
#include "core/contrastive.h"
#include "mat/kernels.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace awmoe {

ParallelTrainer::ParallelTrainer(Ranker* model,
                                 const ParallelTrainerConfig& config)
    : model_(model),
      config_(config),
      // Same fork order as the serial Trainer (rng -> shuffle -> augment),
      // so the shuffled batch stream is identical between the two.
      rng_(config.base.seed),
      shuffle_rng_(rng_.Fork()),
      augment_root_rng_(rng_.Fork()) {
  AWMOE_CHECK(model != nullptr);
  AWMOE_CHECK(config_.num_workers >= 1)
      << "ParallelTrainer: num_workers " << config_.num_workers;
  AWMOE_CHECK(config_.grad_accumulation >= 1)
      << "ParallelTrainer: grad_accumulation " << config_.grad_accumulation;
  params_ = model->Parameters();
  optimizer_ = std::make_unique<AdamW>(params_, config_.base.lr,
                                       config_.base.weight_decay);
  replicas_.resize(static_cast<size_t>(config_.num_workers));
  for (WorkerReplica& replica : replicas_) {
    replica.clone = model->Clone();
    AWMOE_CHECK(replica.clone != nullptr)
        << model->name() << " does not implement Clone()";
    replica.params = replica.clone->Parameters();
    AWMOE_CHECK(replica.params.size() == params_.size());
  }
  grad_sum_.reserve(params_.size());
  for (const Var& p : params_) grad_sum_.emplace_back(p.rows(), p.cols());
  has_grad_.assign(params_.size(), 0);
  grad_norms_.assign(params_.size(), 0.0);
  // Largest parameter first, each onto the least-loaded worker.
  std::vector<size_t> by_size(params_.size());
  std::iota(by_size.begin(), by_size.end(), size_t{0});
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return params_[a].value().size() > params_[b].value().size();
  });
  owned_params_.resize(replicas_.size());
  std::vector<int64_t> load(replicas_.size(), 0);
  for (const size_t i : by_size) {
    const size_t w = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owned_params_[w].push_back(i);
    load[w] += params_[i].value().size();
  }
  if (config_.num_workers > 1) {
    threads_.reserve(static_cast<size_t>(config_.num_workers));
    for (int w = 0; w < config_.num_workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }
}

ParallelTrainer::~ParallelTrainer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ParallelTrainer::ComputeShard(int worker, size_t s) {
  WorkerReplica& replica = replicas_[static_cast<size_t>(worker)];
  for (Var& p : replica.params) p.ZeroGrad();

  Shard& shard = shards_[s];
  BatchLossTerms terms;
  Var loss;
  if (config_.base.contrastive) {
    ContrastiveAugmenter augmenter(config_.base.cl, &shard.augment_rng);
    loss = BuildTrainingLoss(replica.clone.get(), shard.batch, config_.base,
                             &augmenter, &terms);
  } else {
    loss = BuildTrainingLoss(replica.clone.get(), shard.batch, config_.base,
                             /*augmenter=*/nullptr, &terms);
  }
  loss.Backward();

  std::vector<Matrix>& grads = shard_grads_[s];
  grads.resize(replica.params.size());
  for (size_t i = 0; i < replica.params.size(); ++i) {
    Var& p = replica.params[i];
    grads[i] = p.has_grad() ? p.TakeGrad() : Matrix();
  }
  shard_terms_[s] = terms;
}

void ParallelTrainer::ReduceParameter(size_t param) {
  Matrix& sum = grad_sum_[param];
  float* dst = sum.data();
  const int64_t n = sum.size();
  bool any = false;
  // Shard-index order regardless of worker scheduling: this fixed
  // float summation order is what makes the reduced gradient — and
  // therefore the whole run — independent of num_workers, bitwise.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Matrix& g = shard_grads_[s][param];
    if (g.empty()) continue;
    AWMOE_CHECK(g.size() == n) << "shard gradient of parameter " << param;
    const float ws = shard_weights_[s];
    const float* src = g.data();
    if (!any) {
      // 0.0f + x, not x: the rounding of a zero-initialised
      // accumulator (a -0 product lands as +0).
      for (int64_t k = 0; k < n; ++k) dst[k] = 0.0f + ws * src[k];
    } else {
      for (int64_t k = 0; k < n; ++k) dst[k] += ws * src[k];
    }
    any = true;
    g = Matrix();  // Spent: free it now rather than at the next step.
  }
  has_grad_[param] = any;
  if (any && config_.base.grad_clip > 0.0) grad_norms_[param] = Norm(sum);
}

void ParallelTrainer::UpdateParameter(size_t param) {
  if (!has_grad_[param]) return;
  Matrix& grad = grad_sum_[param];
  if (clip_) ScaleInPlace(&grad, clip_scale_);
  optimizer_->UpdateParameter(param, grad.data());
  // Synchronous data parallelism: every replica reads the stepped
  // weights before the next shard group touches it.
  const Matrix& value = params_[param].value();
  for (WorkerReplica& replica : replicas_) {
    Matrix& to = replica.params[param].mutable_value();
    std::copy(value.data(), value.data() + value.size(), to.data());
  }
}

void ParallelTrainer::RunWorkerPhase(int worker, Phase phase) {
  switch (phase) {
    case Phase::kShards:
      while (true) {
        const size_t s = next_shard_.fetch_add(1, std::memory_order_relaxed);
        if (s >= shards_.size()) break;
        ComputeShard(worker, s);
      }
      break;
    case Phase::kReduce:
      for (const size_t i : owned_params_[static_cast<size_t>(worker)]) {
        ReduceParameter(i);
      }
      break;
    case Phase::kUpdate:
      for (const size_t i : owned_params_[static_cast<size_t>(worker)]) {
        UpdateParameter(i);
      }
      break;
  }
}

void ParallelTrainer::WorkerLoop(int worker) {
  int64_t seen_generation = 0;
  while (true) {
    Phase phase = Phase::kShards;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ > seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      phase = phase_;
    }
    RunWorkerPhase(worker, phase);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ParallelTrainer::RunPhase(Phase phase) {
  next_shard_.store(0, std::memory_order_relaxed);
  if (threads_.empty()) {
    RunWorkerPhase(0, phase);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    pending_workers_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
}

void ParallelTrainer::Step() {
  int64_t total_rows = 0;
  for (const Shard& shard : shards_) total_rows += shard.rows;
  AWMOE_CHECK(total_rows > 0);
  shard_weights_.clear();
  for (const Shard& shard : shards_) {
    shard_weights_.push_back(static_cast<float>(shard.rows) /
                             static_cast<float>(total_rows));
  }
  shard_grads_.resize(shards_.size());
  shard_terms_.assign(shards_.size(), {});

  RunPhase(Phase::kShards);
  RunPhase(Phase::kReduce);
  // The global norm sums the per-parameter norms in parameter order,
  // exactly as ClipGradNorm does on the serial path.
  clip_ = false;
  const double max_norm = config_.base.grad_clip;
  if (max_norm > 0.0) {
    double total_sq = 0.0;
    for (size_t i = 0; i < params_.size(); ++i) {
      if (has_grad_[i]) total_sq += grad_norms_[i] * grad_norms_[i];
    }
    const double total = std::sqrt(total_sq);
    if (total > max_norm) {
      clip_ = true;
      clip_scale_ = GradClipScale(total, max_norm);
    }
  }
  optimizer_->AdvanceStep();
  RunPhase(Phase::kUpdate);
  ++steps_;
}

EpochStats ParallelTrainer::TrainEpoch(const std::vector<Example>& train,
                                       const DatasetMeta& meta,
                                       const Standardizer* standardizer) {
  Stopwatch watch;
  EpochStats stats;
  const ServingTraits traits = model_->Traits(meta);
  BatchIterator it(&train, meta, config_.base.batch_size, standardizer,
                   &shuffle_rng_, traits.slate_scoring(),
                   traits.max_slate_items);
  Batch batch;
  double rank_total = 0.0, cl_total = 0.0;
  bool exhausted = false;
  while (!exhausted) {
    shards_.clear();
    while (static_cast<int64_t>(shards_.size()) < config_.grad_accumulation) {
      if (!it.Next(&batch)) {
        exhausted = true;
        break;
      }
      Shard shard;
      shard.batch = std::move(batch);
      shard.rows = shard.batch.size;
      // Forked here, in shard order, on the coordinator: the stream a
      // shard's augmentation consumes is a function of its position in
      // the epoch, never of which worker ran it.
      if (config_.base.contrastive) {
        shard.augment_rng = augment_root_rng_.Fork();
      }
      shards_.push_back(std::move(shard));
    }
    if (shards_.empty()) break;
    Step();
    for (const BatchLossTerms& terms : shard_terms_) {
      rank_total += terms.rank_loss;
      cl_total += terms.cl_loss;
    }
    stats.num_batches += static_cast<int64_t>(shards_.size());
  }
  if (stats.num_batches > 0) {
    stats.mean_rank_loss = rank_total / static_cast<double>(stats.num_batches);
    stats.mean_cl_loss = cl_total / static_cast<double>(stats.num_batches);
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

std::vector<EpochStats> ParallelTrainer::Train(
    const std::vector<Example>& train, const DatasetMeta& meta,
    const Standardizer* standardizer) {
  std::vector<EpochStats> history;
  for (int64_t epoch = 0; epoch < config_.base.epochs; ++epoch) {
    EpochStats stats = TrainEpoch(train, meta, standardizer);
    if (config_.base.verbose) {
      AWMOE_LOG(Info) << model_->name() << " epoch " << (epoch + 1) << "/"
                      << config_.base.epochs << " rank_loss "
                      << stats.mean_rank_loss << " cl_loss "
                      << stats.mean_cl_loss << " [" << config_.num_workers
                      << " workers x " << config_.grad_accumulation
                      << " shards] (" << stats.seconds << "s)";
    }
    history.push_back(stats);
  }
  return history;
}

}  // namespace awmoe
