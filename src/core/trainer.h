#ifndef AWMOE_CORE_TRAINER_H_
#define AWMOE_CORE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/contrastive.h"
#include "data/batcher.h"
#include "data/example.h"
#include "models/ranker.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace awmoe {

/// Training hyper-parameters. The paper trains with AdamW at lr 1e-4 /
/// batch 1024 on a billion-scale corpus (§IV-D); the defaults here are the
/// equivalents tuned for the synthetic corpora (see EXPERIMENTS.md).
struct TrainerConfig {
  int64_t batch_size = 256;
  int64_t epochs = 3;
  float lr = 2e-3f;
  float weight_decay = 1e-5f;
  double grad_clip = 10.0;
  /// Enables the auxiliary contrastive loss (Eq. 11). Requires a model with
  /// a defined GateRepresentation.
  bool contrastive = false;
  ContrastiveConfig cl;
  uint64_t seed = 7;
  bool verbose = false;
};

/// Per-epoch training statistics.
struct EpochStats {
  double mean_rank_loss = 0.0;
  double mean_cl_loss = 0.0;
  int64_t num_batches = 0;
  double seconds = 0.0;
};

/// Scalar loss terms of one training batch (diagnostics; the graph node
/// returned by BuildTrainingLoss is what Backward runs on).
struct BatchLossTerms {
  double rank_loss = 0.0;
  double cl_loss = 0.0;
};

/// Builds the full training-loss graph of one mini-batch (Eq. 11):
///   L_total = L_rank + lambda * L_cl (+ model auxiliary losses)
/// — the BCE ranking loss, the InfoNCE contrastive term when
/// `augmenter` is non-null and `config.contrastive` is set, and any
/// model-specific auxiliary loss the forward pass returns (the
/// AW-MoE expert-disagreement regulariser). Shared by the serial
/// `Trainer` and the data-parallel `ParallelTrainer`
/// (core/parallel_trainer.h) so both optimise the exact same objective;
/// all randomness flows through `augmenter`'s Rng.
Var BuildTrainingLoss(Ranker* model, const Batch& batch,
                      const TrainerConfig& config,
                      ContrastiveAugmenter* augmenter, BatchLossTerms* terms);

/// Mini-batch trainer implementing the paper's objective (Eq. 11):
///   L_total = L_rank + lambda * L_cl
/// where L_rank is the negative log-likelihood (Eq. 1) and L_cl the
/// InfoNCE loss over gate outputs of masked/original behaviour sequences
/// (Eq. 10, Fig. 5).
class Trainer {
 public:
  /// `model` is not owned and must outlive the trainer.
  Trainer(Ranker* model, const TrainerConfig& config);

  /// Runs one epoch over `train` (shuffled); returns loss statistics.
  EpochStats TrainEpoch(const std::vector<Example>& train,
                        const DatasetMeta& meta,
                        const Standardizer* standardizer);

  /// Runs config.epochs epochs.
  std::vector<EpochStats> Train(const std::vector<Example>& train,
                                const DatasetMeta& meta,
                                const Standardizer* standardizer);

  const TrainerConfig& config() const { return config_; }

 private:
  Ranker* model_;
  TrainerConfig config_;
  Rng rng_;
  Rng shuffle_rng_;
  Rng augment_rng_;
  std::unique_ptr<AdamW> optimizer_;
  std::unique_ptr<ContrastiveAugmenter> augmenter_;
};

/// Scores a dataset with the model (no gradients); returns sigmoid
/// probabilities aligned with `examples`.
std::vector<double> Predict(Ranker* model,
                            const std::vector<Example>& examples,
                            const DatasetMeta& meta,
                            const Standardizer* standardizer,
                            int64_t batch_size = 512);

}  // namespace awmoe

#endif  // AWMOE_CORE_TRAINER_H_
