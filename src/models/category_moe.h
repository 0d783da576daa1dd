#ifndef AWMOE_MODELS_CATEGORY_MOE_H_
#define AWMOE_MODELS_CATEGORY_MOE_H_

#include <memory>
#include <string>
#include <vector>

#include "models/embedding_set.h"
#include "models/expert.h"
#include "models/input_network.h"
#include "models/model_dims.h"
#include "models/ranker.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace awmoe {

/// Baseline "Category-MoE" [34]: MoE over the same expert bank as AW-MoE,
/// but the gate is a vanilla FFN fed with the *query category* embedding
/// (the target category in recommendation mode). The gate output is
/// softmax-normalised, the convention of [34]; this is the model AW-MoE
/// replaced in production (§IV-E1).
class CategoryMoeRanker : public Ranker {
 public:
  CategoryMoeRanker(const DatasetMeta& meta, const ModelDims& dims,
                    Rng* rng);

  Var ForwardLogits(const Batch& batch) override;
  std::vector<Var> Parameters() const override;
  std::string name() const override { return "Category-MoE"; }
  std::unique_ptr<Ranker> Clone() const override;

  /// The softmax gate activations [B, K]; exposed for tests.
  Var GateRepresentation(const Batch& batch) override;

  /// Allocation-free inference path; takes a precomputed gate, never an
  /// encoding.
  void Score(const ScoreCall& call) override;

  /// In search mode the gate reads only the query category — constant
  /// within a session (and covered by the serving engine's gate-context
  /// hash), so one gate row serves every candidate and share_gate holds.
  /// In recommendation mode it reads the target category: per-item, no
  /// reuse.
  ServingTraits Traits(const DatasetMeta& meta) const override;

  /// Graph-free gate rows [B, K] (softmaxed FFN over the category
  /// embedding) for the serving engine's per-session probe.
  void GateInto(const Batch& batch, InferenceWorkspace* workspace,
                std::span<float> out) override;

 private:
  /// The softmaxed gate rows [B, K], on either executor.
  template <class X>
  MatOf<X> GateRows(const X& x, const Batch& batch, DstOf<X> out) const;

  /// The forward body, on either executor: input network, expert
  /// scores, GateRows or the supplied `gate`, then their row-wise dot
  /// into `out`.
  template <class X>
  MatOf<X> Run(const X& x, const Batch& batch, const SessionGate* gate,
               DstOf<X> out) const;

  DatasetMeta meta_;
  ModelDims dims_;
  EmbeddingSet embeddings_;
  InputNetwork input_network_;
  ExpertBank experts_;
  Mlp gate_mlp_;
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_CATEGORY_MOE_H_
