#ifndef AWMOE_MODELS_MODEL_DIMS_H_
#define AWMOE_MODELS_MODEL_DIMS_H_

#include <cstdint>
#include <vector>

namespace awmoe {

/// Layer widths for every unit in Fig. 4. `PaperScale()` reproduces the
/// published sizes; `Default()` is a quarter-scale variant sized for
/// single-core CPU training (the benches use it — see
/// docs/reproduction.md#model-scale).
struct ModelDims {
  int64_t emb_dim = 8;
  /// Hidden dims of the per-feature-type tower MLPs (paper: 64x32).
  std::vector<int64_t> tower_mlp = {32, 16};
  /// Hidden dims of the activation unit before its scalar output
  /// (paper: 32x16, then x1).
  std::vector<int64_t> activation_unit = {16, 8};
  /// Hidden dims of the gate unit before its K-wide output
  /// (paper: 32x16, then xK).
  std::vector<int64_t> gate_unit = {16, 8};
  /// Hidden dims of the expert network before its scalar output
  /// (paper: 512x256, then x1).
  std::vector<int64_t> expert = {128, 64};
  /// Number of expert networks K (paper: 4).
  int64_t num_experts = 4;

  /// Quarter-scale default (CPU friendly).
  static ModelDims Default() { return ModelDims{}; }

  /// The paper's published layer sizes (§IV-D, Fig. 4).
  static ModelDims PaperScale() {
    ModelDims dims;
    dims.emb_dim = 16;
    dims.tower_mlp = {64, 32};
    dims.activation_unit = {32, 16};
    dims.gate_unit = {32, 16};
    dims.expert = {512, 256};
    dims.num_experts = 4;
    return dims;
  }

  /// Width of a tower output h_tau.
  int64_t hidden_dim() const { return tower_mlp.back(); }
};

}  // namespace awmoe

#endif  // AWMOE_MODELS_MODEL_DIMS_H_
