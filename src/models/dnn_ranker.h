#ifndef AWMOE_MODELS_DNN_RANKER_H_
#define AWMOE_MODELS_DNN_RANKER_H_

#include <memory>
#include <string>
#include <vector>

#include "models/embedding_set.h"
#include "models/input_network.h"
#include "models/model_dims.h"
#include "models/ranker.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace awmoe {

/// The one body of the two FFN baselines: the input network's impression
/// vector feeds a single FFN with the structure of one expert network
/// (§IV-D). They differ only in how the behaviour sequence is pooled
/// into the user vector. Construct DnnRanker or DinRanker below.
///
/// Session feature store: the behaviour half of the forward is
/// candidate-independent — with sum pooling the pooled user vector
/// itself, with attention the per-position tower outputs the activation
/// unit attends over (§III-C), replaying only the weighting per
/// candidate — so both share their encoding. Neither has a gate.
class FfnRanker : public Ranker {
 public:
  Var ForwardLogits(const Batch& batch) override;
  std::vector<Var> Parameters() const override;
  std::string name() const override;
  /// Clones into the concrete DnnRanker / DinRanker, so the copy keeps
  /// the dynamic type ModelPool's replica guard compares.
  std::unique_ptr<Ranker> Clone() const override;

  /// Allocation-free inference path; takes an encoding, never a gate.
  void Score(const ScoreCall& call) override;
  ServingTraits Traits(const DatasetMeta& meta) const override;
  void EncodeSessionInto(const Batch& batch, InferenceWorkspace* workspace,
                         std::span<float> out) override;

 protected:
  FfnRanker(const DatasetMeta& meta, const ModelDims& dims,
            UserPooling pooling, Rng* rng);

 private:
  /// The forward body, on either executor: the input network
  /// (replaying `encoding` when given), then the FFN into `out`.
  template <class X>
  MatOf<X> Run(const X& x, const Batch& batch,
               const SessionEncoding* encoding, DstOf<X> out) const;

  DatasetMeta meta_;
  ModelDims dims_;
  UserPooling pooling_;
  EmbeddingSet embeddings_;
  InputNetwork input_network_;
  Mlp ffn_;  // Shaped like one expert network (Fig. 4b).
};

/// Baseline "DNN" [1] (YouTube DNN style): the user vector is the
/// sum-pooled behaviour sequence.
class DnnRanker : public FfnRanker {
 public:
  DnnRanker(const DatasetMeta& meta, const ModelDims& dims, Rng* rng)
      : FfnRanker(meta, dims, UserPooling::kSumPool, rng) {}
};

/// Baseline "DIN" [2]: the user vector uses the activation-unit
/// attention of Eq. 3.
class DinRanker : public FfnRanker {
 public:
  DinRanker(const DatasetMeta& meta, const ModelDims& dims, Rng* rng)
      : FfnRanker(meta, dims, UserPooling::kAttention, rng) {}
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_DNN_RANKER_H_
