#ifndef AWMOE_MODELS_EXPERT_H_
#define AWMOE_MODELS_EXPERT_H_

#include <cstdint>
#include <vector>

#include "models/model_dims.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// A bank of K expert networks Psi_k (Fig. 4b): FFNs from the impression
/// vector to a scalar ranking score (Eq. 5), evaluated on the same
/// input. All experts share one structure and differ only in their
/// randomly initialised parameters (§III-C1). Returns the score matrix
/// S = [s_1 .. s_K] of shape [B, K].
class ExpertBank : public Module {
 public:
  ExpertBank(int64_t input_dim, const ModelDims& dims, Rng* rng);

  /// v_imp [B, input_dim] -> S [B, K], on either executor; expert k
  /// writes column k of `out`.
  template <class X>
  MatOf<X> Run(const X& x, const MatOf<X>& v_imp, DstOf<X> out) const;

  Var ForwardAll(const Var& v_imp) const {
    return Run(GraphExec(), v_imp, {});
  }

  int64_t num_experts() const {
    return static_cast<int64_t>(experts_.size());
  }

  void CollectParameters(std::vector<Var>* params) const override;

 private:
  std::vector<Mlp> experts_;
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_EXPERT_H_
