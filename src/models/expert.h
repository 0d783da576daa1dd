#ifndef AWMOE_MODELS_EXPERT_H_
#define AWMOE_MODELS_EXPERT_H_

#include <cstdint>
#include <vector>

#include "models/model_dims.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// One expert network Psi_k of Fig. 4b: an FFN from the impression vector
/// to a scalar ranking score (Eq. 5). All experts share this structure and
/// differ only in their randomly initialised parameters (§III-C1).
class ExpertNetwork : public Module {
 public:
  ExpertNetwork(int64_t input_dim, const ModelDims& dims, Rng* rng);

  /// v_imp [B, input_dim] -> s_k [B, 1].
  Var Forward(const Var& v_imp) const;

  /// Graph-free Forward into a caller [B, 1] view (a column of the
  /// expert-score matrix on the Score path).
  void InferInto(const ConstMatView& v_imp, InferenceArena* arena,
                 MatView out) const;

  void CollectParameters(std::vector<Var>* params) const override;

 private:
  Mlp mlp_;
};

/// A bank of K experts evaluated on the same impression vector; returns
/// the concatenated score matrix S = [s_1 .. s_K] of shape [B, K].
class ExpertBank : public Module {
 public:
  ExpertBank(int64_t input_dim, const ModelDims& dims, Rng* rng);

  Var ForwardAll(const Var& v_imp) const;

  /// Graph-free ForwardAll: expert k writes column k of `out` [B, K]
  /// (bitwise-identical to the ConcatCols of per-expert Forwards).
  void InferAllInto(const ConstMatView& v_imp, InferenceArena* arena,
                    MatView out) const;

  int64_t num_experts() const {
    return static_cast<int64_t>(experts_.size());
  }

  void CollectParameters(std::vector<Var>* params) const override;

 private:
  std::vector<ExpertNetwork> experts_;
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_EXPERT_H_
