#ifndef AWMOE_CORE_PARALLEL_TRAINER_H_
#define AWMOE_CORE_PARALLEL_TRAINER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/batcher.h"
#include "data/example.h"
#include "mat/matrix.h"
#include "models/ranker.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace awmoe {

/// Data-parallel training configuration. `base` carries the objective
/// and optimizer hyper-parameters (shared with the serial Trainer);
/// the two knobs below shape the parallel schedule.
struct ParallelTrainerConfig {
  TrainerConfig base;

  /// Worker threads computing shard gradients on private model clones.
  /// 1 runs every shard on the calling thread (no threads spawned) —
  /// and, by the determinism contract below, produces BITWISE the same
  /// parameters as any other worker count.
  int num_workers = 2;

  /// Shards (micro-batches of `base.batch_size` rows) accumulated into
  /// one synchronous optimizer step. The reduced gradient is the
  /// row-weighted average of the shard gradients, i.e. the gradient of
  /// the mean loss over the union of the shards — a step over an
  /// effective batch of grad_accumulation * batch_size rows without
  /// ever materialising it.
  int64_t grad_accumulation = 1;
};

/// Data-parallel synchronous trainer: each global step takes the next
/// `grad_accumulation` shards off the (serial-Trainer-identical)
/// shuffled batch stream, fans them out to `num_workers` threads — each
/// holding a private deep clone of the model, because autograd gradient
/// accumulation on shared leaves is not thread-safe — and reduces the
/// shard gradients into one averaged update on the primary model, which
/// every clone then receives. The reduce, the clip and the AdamW update
/// run on the same workers, each over a fixed set of whole parameters.
///
/// Determinism contract (pinned by core_parallel_trainer_test):
///  - WORKER-COUNT INDEPENDENCE, bitwise: shard gradients are reduced
///    in shard-index order with float weights rows_s / total_rows, no
///    matter which worker computed which shard, and each shard's
///    contrastive augmentation Rng is forked from a single root in
///    shard order on the coordinator. Training with N workers yields
///    bit-for-bit the parameters of training with 1.
///  - SERIAL EQUIVALENCE, bitwise, when grad_accumulation == 1 and
///    contrastive is off: one shard per step weighted 1.0f (an IEEE
///    identity) walks exactly the serial Trainer's sequence of
///    forwards, clips and AdamW steps. (With contrastive ON the serial
///    Trainer consumes one evolving augmentation stream while shards
///    use per-shard forks, so equivalence is statistical, not bitwise.)
class ParallelTrainer {
 public:
  /// `model` is not owned and must outlive the trainer; it is the
  /// primary replica the optimizer steps and the clones sync from.
  ParallelTrainer(Ranker* model, const ParallelTrainerConfig& config);
  ~ParallelTrainer();

  ParallelTrainer(const ParallelTrainer&) = delete;
  ParallelTrainer& operator=(const ParallelTrainer&) = delete;

  /// Runs one epoch over `train` (shuffled); returns loss statistics.
  /// `num_batches` counts shards (micro-batches), matching the serial
  /// Trainer's notion of a batch.
  EpochStats TrainEpoch(const std::vector<Example>& train,
                        const DatasetMeta& meta,
                        const Standardizer* standardizer);

  /// Runs config.base.epochs epochs.
  std::vector<EpochStats> Train(const std::vector<Example>& train,
                                const DatasetMeta& meta,
                                const Standardizer* standardizer);

  const ParallelTrainerConfig& config() const { return config_; }

  /// Optimizer steps taken so far (one per reduced shard group).
  int64_t steps() const { return steps_; }

 private:
  /// One micro-batch of work: the collated rows plus a private
  /// augmentation Rng forked in shard order (worker-count independent).
  struct Shard {
    Batch batch;
    Rng augment_rng;
    int64_t rows = 0;
  };

  /// One worker's private replica: a deep clone plus its parameter
  /// handles (construction-order aligned with the primary's).
  struct WorkerReplica {
    std::unique_ptr<Ranker> clone;
    std::vector<Var> params;
  };

  /// What the workers run between two handshakes.
  enum class Phase {
    kShards,  // Claim shards and compute their gradients.
    kReduce,  // Own parameters: reduce the shard gradients, take norms.
    kUpdate,  // Own parameters: clip, AdamW, write every replica.
  };

  /// Computes shard `s`'s gradients on worker `w`'s clone into
  /// shard_grads_[s] (one Matrix per parameter; empty = no gradient).
  void ComputeShard(int worker, size_t s);

  /// Reduces the shard gradients of `param` in shard order into
  /// grad_sum_[param] and records its norm.
  void ReduceParameter(size_t param);

  /// Applies the step's clip scale and AdamW update to `param` and
  /// writes its new value into every replica.
  void UpdateParameter(size_t param);

  /// One step: the shard phase, the reduce phase, the global norm on
  /// the coordinator, the update phase.
  void Step();

  /// Runs `phase` to completion across the workers (inline on the
  /// calling thread when single-threaded).
  void RunPhase(Phase phase);

  /// Worker `worker`'s share of `phase`.
  void RunWorkerPhase(int worker, Phase phase);

  /// Persistent worker thread body (num_workers > 1 only).
  void WorkerLoop(int worker);

  Ranker* model_;
  ParallelTrainerConfig config_;
  Rng rng_;
  Rng shuffle_rng_;
  /// Root of the per-shard augmentation forks (fork order == shard
  /// order, so streams do not depend on worker scheduling).
  Rng augment_root_rng_;
  std::vector<Var> params_;
  std::unique_ptr<AdamW> optimizer_;
  std::vector<WorkerReplica> replicas_;
  int64_t steps_ = 0;
  /// The parameters each worker reduces and updates, balanced by
  /// element count; fixed at construction.
  std::vector<std::vector<size_t>> owned_params_;

  // Per-step state: written by the coordinator before workers are
  // released (the generation handshake under mu_ orders the accesses),
  // then each slot written by exactly one worker.
  std::vector<Shard> shards_;
  std::vector<float> shard_weights_;  // rows_s / total rows.
  std::vector<std::vector<Matrix>> shard_grads_;
  std::vector<BatchLossTerms> shard_terms_;
  /// The reduced gradient per parameter (value-shaped, allocated once).
  std::vector<Matrix> grad_sum_;
  /// Per parameter: whether any shard produced a gradient this step
  /// (char, not vector<bool>: workers write neighbouring slots).
  std::vector<char> has_grad_;
  std::vector<double> grad_norms_;
  bool clip_ = false;
  float clip_scale_ = 1.0f;

  // Worker pool handshake (threads exist only when num_workers > 1).
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  int64_t generation_ = 0;
  Phase phase_ = Phase::kShards;
  int pending_workers_ = 0;
  bool stopping_ = false;
  std::atomic<size_t> next_shard_{0};
};

}  // namespace awmoe

#endif  // AWMOE_CORE_PARALLEL_TRAINER_H_
