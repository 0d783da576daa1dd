#include "core/parallel_trainer.h"

#include <utility>

#include "autograd/variable.h"
#include "core/contrastive.h"
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
    if (replica.params[i].has_grad()) {
      grads[i] = replica.params[i].grad();
    } else {
      grads[i] = Matrix();
    }
  }
  shard_terms_[s] = terms;
}

void ParallelTrainer::WorkerLoop(int worker) {
  int64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ > seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    while (true) {
      const size_t s = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards_.size()) break;
      ComputeShard(worker, s);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ParallelTrainer::RunShards() {
  shard_grads_.assign(shards_.size(), {});
  shard_terms_.assign(shards_.size(), {});
  if (threads_.empty()) {
    for (size_t s = 0; s < shards_.size(); ++s) ComputeShard(0, s);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_shard_.store(0, std::memory_order_relaxed);
    pending_workers_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
}

void ParallelTrainer::ReduceAndStep() {
  int64_t total_rows = 0;
  for (const Shard& shard : shards_) total_rows += shard.rows;
  AWMOE_CHECK(total_rows > 0);

  optimizer_->ZeroGrad();
  for (size_t i = 0; i < params_.size(); ++i) {
    Matrix acc;
    // Shard-index order regardless of worker scheduling: this fixed
    // float summation order is what makes the reduced gradient — and
    // therefore the whole run — independent of num_workers, bitwise.
    for (size_t s = 0; s < shards_.size(); ++s) {
      const Matrix& g = shard_grads_[s][i];
      if (g.empty()) continue;
      const float ws = static_cast<float>(shards_[s].rows) /
                       static_cast<float>(total_rows);
      if (acc.empty()) acc = Matrix(g.rows(), g.cols());
      const float* src = g.data();
      float* dst = acc.data();
      for (int64_t k = 0; k < g.size(); ++k) dst[k] += ws * src[k];
    }
    if (!acc.empty()) {
      internal_ag::AccumulateGrad(params_[i].impl().get(), acc);
    }
  }

  if (config_.base.grad_clip > 0.0) {
    ClipGradNorm(&params_, config_.base.grad_clip);
  }
  optimizer_->Step();
  ++steps_;

  // Synchronous data parallelism: every replica re-reads the stepped
  // primary weights before the next shard group touches it.
  for (WorkerReplica& replica : replicas_) {
    CopyParametersInto(*model_, replica.clone.get());
  }
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
    RunShards();
    ReduceAndStep();
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
