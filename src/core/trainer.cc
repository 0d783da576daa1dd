#include "core/trainer.h"

#include "autograd/ops.h"
#include "core/aw_moe.h"
#include "mat/kernels.h"
#include "models/listwise/listwise_reranker.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace awmoe {

Trainer::Trainer(Ranker* model, const TrainerConfig& config)
    : model_(model),
      config_(config),
      rng_(config.seed),
      shuffle_rng_(rng_.Fork()),
      augment_rng_(rng_.Fork()) {
  AWMOE_CHECK(model != nullptr);
  optimizer_ = std::make_unique<AdamW>(model->Parameters(), config.lr,
                                       config.weight_decay);
  if (config_.contrastive) {
    augmenter_ =
        std::make_unique<ContrastiveAugmenter>(config_.cl, &augment_rng_);
  }
}

Var BuildTrainingLoss(Ranker* model, const Batch& batch,
                      const TrainerConfig& config,
                      ContrastiveAugmenter* augmenter, BatchLossTerms* terms) {
  // AW-MoE's forward already computes the gate g(u_i), which is the CL
  // anchor: take both from one pass instead of running the gate network
  // a second time.
  auto* aw = dynamic_cast<AwMoeRanker*>(model);
  Var logits, gate, aux;
  if (aw != nullptr) {
    AwMoeRanker::ForwardResult forward = aw->Forward(batch);
    logits = forward.logits;
    gate = forward.gate;
    aux = forward.aux_loss;
  } else {
    logits = model->ForwardLogits(batch);
  }
  Var loss;
  // The slate bit does not read the meta.
  if (model->Traits(DatasetMeta{}).slate_scoring()) {
    // Listwise models rank a slate against itself: ListNet softmax
    // cross-entropy per slate. Requires the iterator's group_by_session
    // mode so slates arrive whole; the iterator's explicit group
    // boundaries are the slate identity (sub-slates of a split
    // oversized session, duplicate session-id runs), with the
    // session-run derivation as the fallback for hand-built batches.
    std::vector<int64_t> derived;
    if (batch.slate_starts.empty()) SlateStartsFromBatch(batch, &derived);
    const std::vector<int64_t>& starts =
        batch.slate_starts.empty() ? derived : batch.slate_starts;
    loss = ag::ListwiseSoftmaxCrossEntropy(logits, batch.labels, starts);
  } else {
    loss = ag::BceWithLogitsLoss(logits, batch.labels);
  }
  if (terms != nullptr) terms->rank_loss = loss.value()(0, 0);

  if (config.contrastive && config.cl.weight > 0.0 && augmenter != nullptr) {
    // Anchor g(u_i), positive g(u'_i) from the masked sequence, and l
    // in-batch negatives gathered from the anchor matrix (Fig. 5).
    Var anchor = gate.defined() ? gate : model->GateRepresentation(batch);
    AWMOE_CHECK(anchor.defined())
        << model->name() << " has no gate representation for CL";
    Batch augmented = augmenter->Augment(batch);
    Var positive = model->GateRepresentation(augmented);
    std::vector<Var> negatives;
    for (const auto& idx : augmenter->SampleNegatives(batch.size)) {
      negatives.push_back(ag::GatherRows(anchor, idx));
    }
    Var cl_loss = ag::InfoNceLoss(anchor, positive, negatives);
    if (terms != nullptr) terms->cl_loss = cl_loss.value()(0, 0);
    loss = ag::Add(loss,
                   ag::Scale(cl_loss, static_cast<float>(config.cl.weight)));
  }

  // The expert-disagreement regulariser, from the same forward pass.
  if (aux.defined()) loss = ag::Add(loss, aux);
  return loss;
}

EpochStats Trainer::TrainEpoch(const std::vector<Example>& train,
                               const DatasetMeta& meta,
                               const Standardizer* standardizer) {
  Stopwatch watch;
  EpochStats stats;
  const ServingTraits traits = model_->Traits(meta);
  BatchIterator it(&train, meta, config_.batch_size, standardizer,
                   &shuffle_rng_, traits.slate_scoring(),
                   traits.max_slate_items);
  Batch batch;
  double rank_total = 0.0, cl_total = 0.0;
  while (it.Next(&batch)) {
    optimizer_->ZeroGrad();

    BatchLossTerms terms;
    Var loss =
        BuildTrainingLoss(model_, batch, config_, augmenter_.get(), &terms);
    rank_total += terms.rank_loss;
    cl_total += terms.cl_loss;

    loss.Backward();
    std::vector<Var> params = model_->Parameters();
    if (config_.grad_clip > 0.0) ClipGradNorm(&params, config_.grad_clip);
    optimizer_->Step();
    ++stats.num_batches;
  }
  if (stats.num_batches > 0) {
    stats.mean_rank_loss = rank_total / stats.num_batches;
    stats.mean_cl_loss = cl_total / stats.num_batches;
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

std::vector<EpochStats> Trainer::Train(const std::vector<Example>& train,
                                       const DatasetMeta& meta,
                                       const Standardizer* standardizer) {
  std::vector<EpochStats> history;
  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    EpochStats stats = TrainEpoch(train, meta, standardizer);
    if (config_.verbose) {
      AWMOE_LOG(Info) << model_->name() << " epoch " << (epoch + 1) << "/"
                      << config_.epochs << " rank_loss "
                      << stats.mean_rank_loss << " cl_loss "
                      << stats.mean_cl_loss << " (" << stats.seconds << "s)";
    }
    history.push_back(stats);
  }
  return history;
}

std::vector<double> Predict(Ranker* model,
                            const std::vector<Example>& examples,
                            const DatasetMeta& meta,
                            const Standardizer* standardizer,
                            int64_t batch_size) {
  NoGradGuard guard;
  std::vector<double> scores;
  scores.reserve(examples.size());
  const ServingTraits traits = model->Traits(meta);
  BatchIterator it(&examples, meta, batch_size, standardizer,
                   /*rng=*/nullptr, traits.slate_scoring(),
                   traits.max_slate_items);
  Batch batch;
  while (it.Next(&batch)) {
    Matrix probs = Sigmoid(model->ForwardLogits(batch).value());
    for (int64_t i = 0; i < probs.rows(); ++i) {
      scores.push_back(static_cast<double>(probs(i, 0)));
    }
  }
  return scores;
}

}  // namespace awmoe
